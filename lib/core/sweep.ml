open Sdn_sim

type point = { rate_mbps : float; results : Experiment.result list }

type series = { label : string; points : point list }

let default_rates = List.init 20 (fun i -> float_of_int ((i + 1) * 5))

(* The release-stable seed grid: every (rate, repetition) cell gets its
   own seed, distinct across the whole grid for the paper's rates
   (multiples of 0.1 Mbps) and up to 1000 repetitions. Golden-tested;
   changing this mapping invalidates every recorded figure. *)
let seed_for ~rate_mbps ~rep = (int_of_float (rate_mbps *. 10.0) * 1000) + rep + 1

let run ~label ?(rates = default_rates) ?(reps = 20) ?(jobs = 1) make_config =
  (* Configurations are built sequentially in the calling domain, rates
     outer and repetitions inner — [make_config] is caller code and may
     observe call order. Only the pure [Experiment.run] calls fan out. *)
  let configs =
    Array.of_list
      (List.concat_map
         (fun rate_mbps ->
           List.init reps (fun rep ->
               make_config ~rate_mbps ~seed:(seed_for ~rate_mbps ~rep)))
         rates)
  in
  let results = Exec.run_experiments ~jobs configs in
  let points =
    List.mapi
      (fun rate_idx rate_mbps ->
        {
          rate_mbps;
          results = List.init reps (fun rep -> results.((rate_idx * reps) + rep));
        })
      rates
  in
  { label; points }

let stats_of_point point f =
  let s = Stats.create () in
  List.iter (fun r -> Stats.add s (f r)) point.results;
  s

let point_mean point f = Stats.mean (stats_of_point point f)

(* A single repetition has no sample standard deviation; report 0
   rather than a divide-by-zero artefact so reps=1 smoke sweeps plot
   cleanly. *)
let sd_of_stats s = if Stats.count s <= 1 then 0.0 else Stats.stddev s

let point_sd point f = sd_of_stats (stats_of_point point f)

let point_max point f =
  let s = stats_of_point point f in
  if Stats.count s = 0 then 0.0 else Stats.max s

let stats_of_series series f =
  let s = Stats.create () in
  List.iter
    (fun point -> List.iter (fun r -> Stats.add s (f r)) point.results)
    series.points;
  s

let series_mean series f = Stats.mean (stats_of_series series f)
let series_sd series f = sd_of_stats (stats_of_series series f)

let series_max series f =
  let s = stats_of_series series f in
  if Stats.count s = 0 then 0.0 else Stats.max s

let reduction_pct ~baseline ~improved =
  if baseline = 0.0 then 0.0 else (baseline -. improved) /. baseline *. 100.0
