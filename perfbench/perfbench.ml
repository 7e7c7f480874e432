(* The repository benchmark. See README.md in this directory.

   perfbench.exe --workload W|all [--seed N] [--seconds S] [--trace 0|1]
                 [--scale full|smoke] [--out FILE.jsonl]
   perfbench.exe list        declared workloads and metrics
   perfbench.exe manifest    BENCHMARK.json, generated from the declarations
   perfbench.exe compare BASE.jsonl... -- CAND.jsonl...
   perfbench.exe smoke       every workload at smoke scale, both modes

   --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
   breakdown. The last line of stdout is the one-line JSON summary. *)

let run_seconds = 20

let command = [ "bash"; "perfbench/run.sh" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W|all [--seed N] [--seconds S] [--trace 0|1]\n\
    \                     [--scale full|smoke] [--out FILE.jsonl]\n\
    \       perfbench.exe list | manifest | smoke\n\
    \       perfbench.exe compare BASE.jsonl... -- CAND.jsonl...";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
  exit 2

let manifest () =
  let q = Json.quote in
  let rows render xs = String.concat ",\n" (List.map (fun x -> "    " ^ render x) xs) in
  let metric (m : Metric.t) =
    Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s%s}" (q m.Metric.name)
      (q m.Metric.unit_)
      (q (Metric.better_string m.Metric.better))
      (match m.Metric.kind with
      | Metric.End_to_end bound -> Printf.sprintf ", \"bound\": %g" bound
      | Metric.Layer _ -> "")
  in
  Printf.printf
    "{\n\
    \  \"command\": [%s],\n\
    \  \"paths\": [\"perfbench\"],\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": [\n%s\n  ],\n\
    \  \"end_to_end\": [\n%s\n  ],\n\
    \  \"per_layer\": [\n%s\n  ]\n}\n"
    (String.concat ", " (List.map q command))
    run_seconds
    (rows
       (fun (w : Workload.t) ->
         Printf.sprintf "{\"name\": %s, \"why\": %s}" (q w.Workload.name) (q w.Workload.why))
       Workload.all)
    (rows metric Metric.end_to_end) (rows metric Metric.per_layer)

let measure w ~trace ~scale ~seed ~seconds =
  if trace then Trace.run w ~scale ~seed ~seconds else E2e.run w ~scale ~seed ~seconds

(* Every workload at smoke scale in both modes: each declared metric is
   emitted, nothing fails, the traced re-composition is faithful. *)
let smoke () =
  let problems =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun trace ->
            let o = measure w ~trace ~scale:Workload.Smoke ~seed:1 ~seconds:0.0 in
            let label = o.Outcome.mode ^ " " ^ o.Outcome.workload in
            List.map (fun n -> label ^ ": metric " ^ n ^ " not emitted") (Outcome.missing o)
            @
            if Outcome.correct o then []
            else [ Printf.sprintf "%s: %d of %d failed" label o.Outcome.failed o.Outcome.attempted ])
          [ false; true ])
      Workload.all
  in
  List.iter prerr_endline problems;
  if problems <> [] then exit 1

let run_all argv =
  let failed =
    List.filter
      (fun (w : Workload.t) ->
        let args =
          Array.of_list (Sys.executable_name :: "--workload" :: w.Workload.name :: argv)
        in
        flush_all ();
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> false
        | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) -> true)
      Workload.all
  in
  if failed <> [] then exit 1

let main argv =
  let workload = ref "" and seed = ref 1 and seconds = ref (float_of_int run_seconds) in
  let trace = ref 0 and scale = ref "full" and out = ref "" in
  let rest = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N shift of every experiment seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long the timed pass runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--scale", Arg.Set_string scale, "full|smoke workload size");
      ("--out", Arg.Set_string out, "FILE append the full result line (JSONL)");
    ]
  in
  (match Arg.parse_argv ~current:(ref 0) argv spec (fun a -> rest := a :: !rest) "" with
  | () -> ()
  | exception (Arg.Bad _ | Arg.Help _) -> usage ());
  let scale =
    match !scale with "full" -> Workload.Full | "smoke" -> Workload.Smoke | _ -> usage ()
  in
  if !rest <> [] || (!trace <> 0 && !trace <> 1) then usage ();
  if String.equal !workload "all" then begin
    let rec strip = function
      | "--workload" :: _ :: rest -> strip rest
      | x :: rest -> x :: strip rest
      | [] -> []
    in
    run_all (strip (List.tl (Array.to_list argv)))
  end
  else
    match Workload.find !workload with
    | None -> usage ()
    | Some w ->
        let o = measure w ~trace:(!trace = 1) ~scale ~seed:!seed ~seconds:!seconds in
        (match Outcome.missing o with
        | [] -> ()
        | names ->
            Printf.eprintf "no result: metrics not measured: %s\n" (String.concat ", " names);
            exit 1);
        if !out <> "" then Outcome.append !out o;
        Outcome.print o;
        print_endline (Outcome.summary_line o)

let () =
  match Array.to_list Sys.argv with
  | [ _; "list" ] -> Metric.print_list ()
  | [ _; "manifest" ] -> manifest ()
  | [ _; "smoke" ] -> smoke ()
  | _ :: "compare" :: args -> (
      let rec split acc = function
        | "--" :: cand -> (List.rev acc, cand)
        | x :: rest -> split (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      match split [] args with
      | (_ :: _ as base), (_ :: _ as cand) -> Compare.run base cand
      | _ -> usage ())
  | _ -> main Sys.argv
