(** The [massive] extreme-scale bench scenario.

    Injects an extreme flow count through the {e full}
    switch/controller pipeline (PACKET_IN, buffering, flow-mod,
    forwarding) as independent Poisson single-packet-flow shards fanned
    out over {!Exec.run_experiments}, so [--jobs] and [--check]
    (parallel-equivalence replay included) work exactly as in the
    standard sweeps. {!Experiment.result.sim_events} summed over shards
    is the numerator of the headline events/s rate.

    The stats are deterministic (wall-clock timing is the caller's
    job, so every count printed from them is byte-identical across
    [--jobs] widths). The CLI's [massive] subcommand times the run and
    prints the wall-clock rate to stderr, keeping stdout deterministic
    for the CI byte-compare. *)

type pipeline_stats = {
  pl_shards : int;
  pl_flows : int;  (** total flows injected across shards *)
  pl_packets_in : int;
  pl_packets_out : int;
  pl_flows_completed : int;
  pl_sim_events : int;  (** engine events dispatched, summed over shards *)
  pl_check_violations : int;
  pl_check_reports : string list;  (** per-shard reports, shard order *)
}

val run_pipeline :
  ?flows:int ->
  ?shards:int ->
  ?check:bool ->
  ?jobs:int ->
  ?seed:int ->
  unit ->
  pipeline_stats
(** Split [flows] (default 1_000_000) Poisson single-packet flows into
    [shards] (default 20) independent full-pipeline experiments
    (seeded [seed], [seed+1], ...) and run them [jobs]-wide. Raises
    [Invalid_argument] if [flows] or [shards] is non-positive. *)
