(* The [massive] extreme-scale scenario: an extreme Poisson flow count
   sharded over the full switch/controller pipeline via Exec. Returns
   deterministic counters only — the CLI owns the stopwatch. *)

type pipeline_stats = {
  pl_shards : int;
  pl_flows : int;
  pl_packets_in : int;
  pl_packets_out : int;
  pl_flows_completed : int;
  pl_sim_events : int;
  pl_check_violations : int;
  pl_check_reports : string list;
}

let shard_config ~check ~seed ~n_flows =
  {
    Config.default with
    Config.workload = Config.Poisson_flows { n_flows };
    seed;
    rate_mbps = 100.0;
    buffer_capacity = 4096;
    flow_table_capacity = 65536;
    check;
  }

let run_pipeline ?(flows = 1_000_000) ?(shards = 20) ?(check = false)
    ?(jobs = 1) ?(seed = 1) () =
  if flows <= 0 then invalid_arg "Massive.run_pipeline: non-positive flows";
  if shards <= 0 then invalid_arg "Massive.run_pipeline: non-positive shards";
  let shards = min shards flows in
  let base = flows / shards and extra = flows mod shards in
  let configs =
    Array.init shards (fun i ->
        let n_flows = base + if i < extra then 1 else 0 in
        shard_config ~check ~seed:(seed + i) ~n_flows)
  in
  let results = Exec.run_experiments ~jobs configs in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let reports =
    List.filter_map
      (fun (i, r) ->
        Option.map
          (Printf.sprintf "shard %d:\n%s" i)
          r.Experiment.check_report)
      (Array.to_list (Array.mapi (fun i r -> (i, r)) results))
  in
  {
    pl_shards = shards;
    pl_flows = flows;
    pl_packets_in = sum (fun r -> r.Experiment.packets_in);
    pl_packets_out = sum (fun r -> r.Experiment.packets_out);
    pl_flows_completed = sum (fun r -> r.Experiment.flows_completed);
    pl_sim_events = sum (fun r -> r.Experiment.sim_events);
    pl_check_violations = sum (fun r -> r.Experiment.check_violations);
    pl_check_reports = reports;
  }
