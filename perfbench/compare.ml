(* [compare BASE.jsonl... -- CAND.jsonl...]: the pairing rule for a
   change that claims a gain, and the no-regression rule for every
   other metric. Pair i is the i-th base line against the i-th
   candidate line of the same workload, in file order, so alternate
   the two sides when producing them (at least ten pairs).

   Per workload and end-to-end metric:
   - unresolved: either side's interquartile range is wider than the
     metric's bound, unless every candidate run beats every base run;
   - regressed: the candidate median is worse than the base median by
     more than the bound;
   - improved: the candidate wins at least 9/10 of the pairs and the
     medians differ by more than the base's interquartile range;
   - within bound: otherwise.
   A sim_digest that differs between runs of the same workload, seed
   and scale, or a rise in the failure share, is flagged hard. *)

type record = {
  workload : string;
  mode : string;
  seed : int;
  scale : string;
  attempted : int;
  failed : int;
  digest : string;
  values : (string * float) list;
}

let load path =
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let num k j = match Json.member k j with Some (Json.Num v) -> v | _ -> 0.0 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j = Json.parse line in
         {
           workload = str "workload" j;
           mode = str "mode" j;
           seed = int_of_float (num "seed" j);
           scale = str "scale" j;
           attempted = int_of_float (num "attempted" j);
           failed = int_of_float (num "failed" j);
           digest = str "sim_digest" j;
           values =
             (match Json.member "metrics" j with
             | Some (Json.Obj kvs) -> List.map (fun (k, m) -> (k, num "value" m)) kvs
             | _ -> []);
         })

let fail_share rs =
  let a = List.fold_left (fun acc r -> acc + r.attempted) 0 rs in
  let f = List.fold_left (fun acc r -> acc + r.failed) 0 rs in
  float_of_int f /. float_of_int (max 1 a)

let verdict (m : Metric.t) ~bound base cand =
  let bq1, bmed, bq3 = Util.quartiles base and cq1, cmed, cq3 = Util.quartiles cand in
  let pairs = List.combine (List.filteri (fun i _ -> i < List.length cand) base)
      (List.filteri (fun i _ -> i < List.length base) cand) in
  let won = List.length (List.filter (fun (b, c) -> Metric.is_better m c b) pairs) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun b -> Metric.is_better m c b) base) cand
  in
  let spread = Float.max ((bq3 -. bq1) /. bmed) ((cq3 -. cq1) /. cmed) in
  let v =
    if spread > bound && not all_better then "unresolved"
    else if Metric.worse_beyond m ~bound ~base:bmed cmed then "REGRESSED"
    else if
      10 * won >= 9 * List.length pairs
      && Float.abs (cmed -. bmed) > bq3 -. bq1
      && Metric.is_better m cmed bmed
    then "improved"
    else "within bound"
  in
  (bq1, bmed, bq3, cq1, cmed, cq3, won, List.length pairs, spread, v)

let run base_paths cand_paths =
  let base = List.concat_map load base_paths and cand = List.concat_map load cand_paths in
  let hard = ref 0 and regressed = ref 0 in
  (* Simulated statistics are deterministic: one digest per
     (workload, mode, seed, scale), whichever commit produced it. *)
  let keyed = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = (r.workload, r.mode, r.seed, r.scale) in
      match Hashtbl.find_opt keyed key with
      | Some d when not (String.equal d r.digest) ->
          incr hard;
          Printf.printf "HARD: sim_digest mismatch for %s %s seed %d (%s vs %s)\n" r.workload
            r.mode r.seed d r.digest
      | Some _ -> ()
      | None -> Hashtbl.add keyed key r.digest)
    (base @ cand);
  List.iter
    (fun (w : Workload.t) ->
      let of_w rs = List.filter (fun r -> String.equal r.workload w.Workload.name && String.equal r.mode "run") rs in
      let b = of_w base and c = of_w cand in
      if b <> [] && c <> [] then begin
        let fb = fail_share b and fc = fail_share c in
        if fc > fb then begin
          incr hard;
          Printf.printf "HARD: %s failure share rose from %.4f to %.4f\n" w.Workload.name fb fc
        end;
        Printf.printf "%s (%d base, %d candidate runs)\n" w.Workload.name (List.length b)
          (List.length c);
        Printf.printf "  %-14s %-36s %-36s %6s %7s  %s\n" "metric" "base q1 / median / q3"
          "candidate q1 / median / q3" "won" "spread" "verdict";
        List.iter
          (fun (m : Metric.t) ->
            match m.Metric.kind with
            | Metric.Layer _ -> ()
            | Metric.End_to_end bound ->
                let vals rs = List.filter_map (fun r -> List.assoc_opt m.Metric.name r.values) rs in
                let bv = vals b and cv = vals c in
                if List.length bv < 2 || List.length cv < 2 then
                  Printf.printf "  %-14s needs at least two runs per side\n" m.Metric.name
                else begin
                  let bq1, bmed, bq3, cq1, cmed, cq3, won, pairs, spread, v =
                    verdict m ~bound bv cv
                  in
                  if String.equal v "REGRESSED" then incr regressed;
                  Printf.printf "  %-14s %11.4g %11.4g %11.4g  %11.4g %11.4g %11.4g  %2d/%-3d %6.1f%%  %s (bound %.0f%%)\n"
                    m.Metric.name bq1 bmed bq3 cq1 cmed cq3 won pairs (spread *. 100.0) v
                    (bound *. 100.0)
                end)
          Metric.all
      end)
    Workload.all;
  if !hard > 0 || !regressed > 0 then exit 1
