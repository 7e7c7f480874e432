(* Benchmark regression gate.

   Compares a candidate benchmark snapshot (a BENCH_*.json written by
   [bench/main.exe json]) against a committed baseline and fails when a
   metric regresses by more than the threshold.

   Conventions:

   - Metric names containing "speedup" are higher-is-better: the gate
     fails when [candidate < baseline * (1 - threshold) - slack].
   - Every other metric is lower-is-better (ns/run, minor-words/run):
     the gate fails when [candidate > baseline * (1 + threshold) + slack].
   - [--portable] restricts the comparison to metrics that are stable
     across machines: allocation counts (".../minor-words") and derived
     speedup ratios.  Absolute nanosecond timings vary with the host
     CPU, so CI gates only the portable subset; the full set is for
     like-for-like comparisons on one machine.

   The small absolute [slack] keeps near-zero metrics from tripping the
   relative threshold on noise (a 0.2-word jitter on a 1-word metric is
   not a regression).

   Beyond the relative baseline comparison, [--min NAME=V] and
   [--max NAME=V] (repeatable) pin absolute floors and ceilings on
   candidate metrics: a floor enforces a claimed win outright (e.g.
   [--min derived/sweep_speedup_jobs4=0.9] keeps a four-wide sweep
   from falling behind the sequential one regardless of what the
   baseline drifted to), and a ceiling pins a structural invariant
   (e.g. [--max micro/engine/churn-25k-pending/minor-words=24] keeps a
   queue slot write from allocating again, with room for measurement
   jitter but not for a real allocation). A named metric absent from
   the candidate is an error.

   Usage:
     bench_gate BASELINE.json CANDIDATE.json [--portable]
                [--threshold PCT] [--slack N]
                [--min NAME=V]... [--max NAME=V]...

   Exits 0 when no gated metric regresses, 1 otherwise (listing every
   regression), 2 on usage or parse errors. *)

let threshold = ref 0.15
let slack = ref 2.0
let portable = ref false
let floors = ref [] (* --min NAME=V: candidate must reach V *)
let ceilings = ref [] (* --max NAME=V: candidate must stay under V *)

let parse_bound flag spec =
  match String.index_opt spec '=' with
  | Some eq -> (
      let name = String.sub spec 0 eq in
      let v = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      match float_of_string_opt v with
      | Some f when name <> "" -> (name, f)
      | _ ->
          Printf.eprintf "bench_gate: bad %s bound %S\n" flag spec;
          exit 2)
  | None ->
      Printf.eprintf "bench_gate: %s expects NAME=VALUE, got %S\n" flag spec;
      exit 2

(* ---- Minimal JSON scanner ----

   The snapshot format is flat: string keys mapped to numbers inside
   the "metrics" object.  A full JSON parser is not needed (and not
   available without new dependencies); scan for "key": number pairs. *)

let parse_metrics path =
  let ic = open_in path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let metrics = ref [] in
  let n = String.length content in
  let i = ref 0 in
  while !i < n do
    (match String.index_from_opt content !i '"' with
    | None -> i := n
    | Some q0 -> (
        match String.index_from_opt content (q0 + 1) '"' with
        | None -> i := n
        | Some q1 ->
            let key = String.sub content (q0 + 1) (q1 - q0 - 1) in
            (* Skip whitespace, then require ':' followed by a number
               for this to count as a metric. *)
            let j = ref (q1 + 1) in
            while
              !j < n && (content.[!j] = ' ' || content.[!j] = '\t')
            do
              incr j
            done;
            if !j < n && content.[!j] = ':' then begin
              incr j;
              while
                !j < n && (content.[!j] = ' ' || content.[!j] = '\t')
              do
                incr j
              done;
              let v0 = !j in
              while
                !j < n
                &&
                match content.[!j] with
                | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
                | _ -> false
              do
                incr j
              done;
              (if !j > v0 then
                 match
                   float_of_string_opt (String.sub content v0 (!j - v0))
                 with
                 | Some v -> metrics := (key, v) :: !metrics
                 | None -> ());
              (* Restart just past the value (a string value restarts at
                 its own opening quote and is consumed as a phantom
                 key that the colon test then rejects). *)
              i := !j
            end
            else
              (* Not a key-value pair: [q1] may itself be the opening
                 quote of the next real key, so resume the scan on it. *)
              i := q1))
  done;
  List.rev !metrics

let contains_substring s sub =
  let ls = String.length sub and ln = String.length s in
  let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
  ls = 0 || go 0

let higher_is_better name = contains_substring name "speedup"

let gated name =
  (not !portable)
  || higher_is_better name
  || contains_substring name "/minor-words"

let () =
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--portable" :: rest ->
        portable := true;
        parse_args rest
    | "--threshold" :: pct :: rest ->
        threshold := float_of_string pct /. 100.0;
        parse_args rest
    | "--slack" :: s :: rest ->
        slack := float_of_string s;
        parse_args rest
    | "--min" :: spec :: rest ->
        floors := parse_bound "--min" spec :: !floors;
        parse_args rest
    | "--max" :: spec :: rest ->
        ceilings := parse_bound "--max" spec :: !ceilings;
        parse_args rest
    | arg :: rest ->
        files := arg :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ baseline_path; candidate_path ] ->
      let baseline = parse_metrics baseline_path in
      let candidate = parse_metrics candidate_path in
      if baseline = [] then begin
        Printf.eprintf "bench_gate: no metrics in baseline %s\n" baseline_path;
        exit 2
      end;
      if candidate = [] then begin
        Printf.eprintf "bench_gate: no metrics in candidate %s\n" candidate_path;
        exit 2
      end;
      let checked = ref 0 and regressions = ref [] and missing = ref [] in
      List.iter
        (fun (name, base) ->
          if name <> "schema" && gated name then
            match List.assoc_opt name candidate with
            | None -> missing := name :: !missing
            | Some cand ->
                incr checked;
                let bad =
                  if higher_is_better name then
                    cand < (base *. (1.0 -. !threshold)) -. !slack
                  else cand > (base *. (1.0 +. !threshold)) +. !slack
                in
                if bad then regressions := (name, base, cand) :: !regressions)
        baseline;
      (* Absolute bounds run against the candidate alone: a floor or
         ceiling is a claim about this snapshot, not about drift. *)
      let bounds = ref [] in
      let check_bound kind (name, bound) =
        match List.assoc_opt name candidate with
        | None -> missing := name :: !missing
        | Some cand ->
            incr checked;
            let bad =
              match kind with
              | `Floor -> cand < bound
              | `Ceiling -> cand > bound
            in
            if bad then bounds := (kind, name, bound, cand) :: !bounds
      in
      List.iter (check_bound `Floor) (List.rev !floors);
      List.iter (check_bound `Ceiling) (List.rev !ceilings);
      List.iter
        (fun (name, base, cand) ->
          Printf.printf "REGRESSION %-55s baseline %12.4g  candidate %12.4g (%s)\n"
            name base cand
            (if higher_is_better name then "higher is better"
             else "lower is better"))
        (List.rev !regressions);
      List.iter
        (fun (kind, name, bound, cand) ->
          Printf.printf "BOUND      %-55s %s %12.4g  candidate %12.4g\n" name
            (match kind with `Floor -> "floor  " | `Ceiling -> "ceiling")
            bound cand)
        (List.rev !bounds);
      List.iter
        (fun name -> Printf.printf "MISSING    %s (required, not in candidate)\n" name)
        (List.rev !missing);
      Printf.printf
        "bench_gate: %d metric(s) checked, %d regression(s), %d bound \
         violation(s), %d missing\n"
        !checked
        (List.length !regressions)
        (List.length !bounds)
        (List.length !missing);
      if !regressions <> [] || !bounds <> [] || !missing <> [] then exit 1
  | _ ->
      prerr_endline
        "usage: bench_gate BASELINE.json CANDIDATE.json [--portable] \
         [--threshold PCT] [--slack N] [--min NAME=V]... [--max NAME=V]...";
      exit 2
