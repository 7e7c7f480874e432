(* The four workloads. Each is a grid of independent experiments
   walked pass by pass: pass [p] is one replication of every grid
   point, so a run that stops at a pass boundary has sampled every
   point equally often, whatever the host's speed.

   Seeds: [--seed S] shifts every experiment's seed by
   [(S - 1) * 10_000_000]; [S = 1] reproduces the seeds the figure
   grid ([Sweep.seed_for]), [massive] and the chaos sweeps use. The
   program only ever receives the generated configurations. *)

open Sdn_core

type scale = Full | Smoke

let scale_name = function Full -> "full" | Smoke -> "smoke"

type t = {
  name : string;
  why : string;
  pass : scale -> seed:int -> int -> Config.t array;
  grid_passes : int;  (** passes in the workload's full result set *)
  trace_stride : int;
  trace_passes : int;
      (** [trace] samples index [j] of pass [p] when
          [j mod trace_stride = p mod trace_stride], for at least
          [trace_passes] passes *)
}

let shift seed = (seed - 1) * 10_000_000

let paper_sweep =
  let pass scale ~seed p =
    let rates, exp_a, exp_b =
      match scale with
      | Full -> (Sweep.default_rates, None, None)
      | Smoke ->
          ( [ 50.0 ],
            Some (Config.Exp_a { n_flows = 50 }),
            Some (Config.Exp_b { n_flows = 10; packets_per_flow = 5; concurrent = 5 }) )
    in
    let shrink w (c : Config.t) =
      match w with Some workload -> { c with Config.workload } | None -> c
    in
    let series =
      [
        (fun ~rate_mbps ~seed ->
          shrink exp_a
            (Config.exp_a ~mechanism:Config.No_buffer ~buffer_capacity:0 ~rate_mbps ~seed));
        (fun ~rate_mbps ~seed ->
          shrink exp_a
            (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:16
               ~rate_mbps ~seed));
        (fun ~rate_mbps ~seed ->
          shrink exp_a
            (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
               ~rate_mbps ~seed));
        (fun ~rate_mbps ~seed ->
          shrink exp_b (Config.exp_b ~mechanism:Config.Packet_granularity ~rate_mbps ~seed));
        (fun ~rate_mbps ~seed ->
          shrink exp_b (Config.exp_b ~mechanism:Config.Flow_granularity ~rate_mbps ~seed));
      ]
    in
    Array.of_list
      (List.concat_map
         (fun make ->
           List.map
             (fun rate_mbps ->
               make ~rate_mbps ~seed:(Sweep.seed_for ~rate_mbps ~rep:p + shift seed))
             rates)
         series)
  in
  {
    name = "paper_sweep";
    why =
      "the Exp-A/Exp-B figure grid users run to reproduce the paper: every \
       Exp-A packet misses, so the control path (codec, controller, buffers) \
       does the work";
    pass;
    grid_passes = 4;
    trace_stride = 10;
    trace_passes = 4;
  }

(* [Massive.shard_config]: one phase-2 shard, of 2000 flows (as
   [massive --flows 32000 --shards 16]). Its table still ends twice
   the size of any other workload's, while one experiment stays near
   0.12 s: a 5000-flow shard takes a second, longer than most of the
   quiet windows between a shared host's slow stretches, so its
   best-of-passes time reads whichever mix of the two a run lands in. *)
let table_scale =
  let pass scale ~seed p =
    let n_flows = match scale with Full -> 2000 | Smoke -> 300 in
    [|
      {
        Config.default with
        Config.workload = Config.Poisson_flows { n_flows };
        seed = 1 + p + shift seed;
        rate_mbps = 100.0;
        buffer_capacity = 4096;
        flow_table_capacity = 65536;
      };
    |]
  in
  {
    name = "table_scale";
    why =
      "massive phase-2 shards: 2000 single-packet flows whose rules outlive \
       the run, so flow-table insert and the expire sweep dominate";
    pass;
    grid_passes = 16;
    trace_stride = 1;
    trace_passes = 4;
  }

(* 25k packets keep one experiment near 0.12 s (see [table_scale]) and
   the engine at ~25k pending events, 25x the other workloads. *)
let hit_path =
  let pass scale ~seed p =
    let n_packets = match scale with Full -> 25_000 | Smoke -> 2000 in
    [|
      {
        Config.default with
        Config.mechanism = Config.Flow_granularity;
        workload = Config.Poisson_mix { n_packets; miss_fraction = 0.01 };
        frame_size = 64;
        rate_mbps = 100.0;
        seed = 1 + p + shift seed;
      };
    |]
  in
  {
    name = "hit_path";
    why =
      "64-B frames, ~98% microflow hits: per-packet datapath cost (decode, \
       lookup, CPU model, links, engine at ~25k pending) dominates and the \
       control path idles";
    pass;
    grid_passes = 24;
    trace_stride = 1;
    trace_passes = 6;
  }

let crash_recovery =
  let pass _scale ~seed p =
    let base = Chaos.default_crash_base ~seed:(1 + p + shift seed) in
    Array.of_list
      (List.concat_map
         (fun mechanism ->
           List.concat_map
             (fun node ->
               List.map
                 (fun mode -> Chaos.crash_point_config ~base ~mechanism ~node ~mode ~down:0.05)
                 Chaos.default_crash_modes)
             Chaos.default_crash_nodes)
         Chaos.default_mechanisms)
  in
  {
    name = "crash_recovery";
    why =
      "chaos crash points: 10 ms echo keepalives, fail-secure freeze/resume, \
       re-requests, reconciliation and cold table wipes use the same layers \
       differently";
    pass;
    grid_passes = 80;
    trace_stride = 12;
    trace_passes = 48;
  }

let all = [ paper_sweep; table_scale; hit_path; crash_recovery ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* A copy of [Experiment]'s private [injections_of]: the set-up pass
   and the traced re-composition must build the same traffic plan the
   timed [Experiment.run] builds. Keep it in step with experiment.ml. *)
let injections_of (config : Config.t) rng =
  let open Sdn_traffic in
  let start = Experiment.traffic_start in
  let rate_mbps = config.Config.rate_mbps and frame_size = config.Config.frame_size in
  match config.Config.workload with
  | Config.Exp_a { n_flows } -> Patterns.exp_a ~rng ~start ~n_flows ~rate_mbps ~frame_size ()
  | Config.Exp_b { n_flows; packets_per_flow; concurrent } ->
      Patterns.exp_b ~rng ~start ~n_flows ~packets_per_flow ~concurrent ~rate_mbps
        ~frame_size ()
  | Config.Udp_burst { n_packets } ->
      Patterns.udp_burst ~rng ~start ~n_packets ~rate_mbps ~frame_size ()
  | Config.Poisson_flows { n_flows } ->
      Patterns.poisson_flows ~rng ~start ~n_flows ~rate_mbps ~frame_size ()
  | Config.Poisson_mix { n_packets; miss_fraction } ->
      Patterns.poisson_mix ~rng ~start ~n_packets ~miss_fraction ~rate_mbps ~frame_size ()
