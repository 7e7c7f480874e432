(** The chaos scenario: control-channel loss rate swept against buffer
    mechanism. Each point runs one full {!Experiment} with the
    control-channel fault plan's independent loss set to the point's
    rate, and the report compares flow-completion ratio, packet
    delivery, re-request effort and time-to-recovery across
    mechanisms. All randomness comes from the seed in the base
    configuration, so two runs with the same seed produce
    byte-identical reports.

    Every sweep returns the {!Experiment.result}s it ran, in grid
    order; each result's [config] is the exact configuration its point
    ran, and the reports read each point's axes (mechanism, loss rate,
    fail mode, outage length, crash, policy, pool size) back from it.
    [jobs] (default 1) fans the independent points out over worker
    domains via {!Exec.run_experiments}; results are merged by grid
    index, so every [jobs] value yields an identical list. *)

val default_loss_rates : float list
(** [0; 0.05; 0.1; 0.2] *)

val default_mechanisms : Config.mechanism list
(** no-buffer, packet-granularity, flow-granularity. *)

val default_base : seed:int -> Config.t
(** Exp-B (50 flows x 20 packets) at 20 Mbps: multi-packet flows whose
    buffered tails make control-channel loss visible. *)

val run :
  ?loss_rates:float list ->
  ?jobs:int ->
  base:Config.t ->
  unit ->
  Experiment.result list
(** Run the sweep: one experiment per mechanism of
    {!default_mechanisms} x loss rate, in deterministic order
    (mechanisms outer, loss rates inner). Each
    point runs [base] with the mechanism substituted and the fault
    plan's independent loss set to the rate (any burst/jitter/outage
    in [base.faults] is kept). *)

val report : Experiment.result list -> string
(** Deterministic plain-text report of {!run}'s results: one table row
    per point plus a time-to-recovery histogram aggregated over every
    point that recovered at least one flow. *)

val print_report : Experiment.result list -> unit

(** {2 Outage sweep}

    A scheduled control-channel blackout swept against buffer mechanism
    and fail mode. Each point runs with the echo keepalive on, a single
    outage window opening at 0.15 s (mid-run for the default Exp-B
    workload), and the report compares detection latency, downtime,
    degraded-mode behaviour and recovery across points. Deterministic
    like the loss sweep. *)

val default_outage_durations : float list
(** [0.05; 0.1] seconds. *)

val default_outage_base : seed:int -> Config.t
(** {!default_base} with the keepalive armed: [echo_interval = 10 ms],
    [echo_misses = 2], so a blackout is declared Down within ~30 ms. *)

val run_outage :
  ?durations:float list ->
  ?jobs:int ->
  base:Config.t ->
  unit ->
  Experiment.result list
(** Run the sweep: one experiment per mechanism of
    {!default_mechanisms} x fail mode x duration, in deterministic
    order (mechanisms outer, then fail-secure before fail-standalone,
    durations inner). Each point runs
    [base] with the mechanism and fail mode substituted and the fault
    plan's outage list replaced by the single window
    [\[0.15, 0.15 + duration)]. *)

val outage_report : Experiment.result list -> string
(** Deterministic plain-text report of {!run_outage}'s results: one
    table row per point (downs, detection latency, downtime,
    completion, standalone frames, fail-secure drops,
    frozen/resumed/expired chains, resyncs, false positives) plus each
    point's session-state timeline. The outage length is read back as
    the window's [stop - start], which is not always bit-equal to the
    swept duration, so it is printed in whole milliseconds. *)

val print_outage_report : Experiment.result list -> unit

(** {2 Crash sweep}

    A scheduled node crash–restart swept against buffer mechanism,
    crashed node and restart mode. Each point runs with the echo
    keepalive armed and a single crash landing at 0.15 s, mid-incast
    for the default Exp-B workload, so misses are in flight; the
    report compares packets lost to the crash, recovery time to steady
    state, reconciliation effort and admission-guard sheds.
    Deterministic like the other sweeps. *)

val default_crash_nodes : Sdn_sim.Faults.crash_node list
(** switch then controller. *)

val default_crash_modes : Sdn_sim.Faults.restart_mode list
(** warm then cold. *)

val default_crash_downs : float list
(** [0.05] seconds. *)

val default_crash_base : seed:int -> Config.t
(** {!default_outage_base}: the keepalive is what notices a dead peer
    and drives the reconnect machinery on both sides. *)

val crash_point_config :
  base:Config.t ->
  mechanism:Config.mechanism ->
  node:Sdn_sim.Faults.crash_node ->
  mode:Sdn_sim.Faults.restart_mode ->
  down:float ->
  Config.t
(** The configuration a crash point runs: [base] with the mechanism
    substituted and the fault plan's crash list replaced by a single
    crash of [node] at 0.15 s, down for [down] seconds, restarting in
    [mode]. *)

val run_crash :
  ?modes:Sdn_sim.Faults.restart_mode list ->
  ?downs:float list ->
  ?jobs:int ->
  base:Config.t ->
  unit ->
  Experiment.result list
(** Run the sweep: one {!crash_point_config} experiment per mechanism
    of {!default_mechanisms} x node of {!default_crash_nodes} x mode x
    downtime, in deterministic order (mechanisms outer, downtimes
    inner). *)

val crash_report : Experiment.result list -> string
(** Deterministic plain-text report of {!run_crash}'s results: one
    table row per point (packets and messages lost to the crash,
    recovery time, reconciliation audit/re-install counts,
    admission-guard sheds, completion, frozen/resumed/expired chains)
    plus each point's session timeline with crash/restart/reconciliation
    events marked. *)

val print_crash_report : Experiment.result list -> unit

(** {2 Buffer-policy sweep}

    The shared-buffer sharing disciplines of {!Sdn_switch.Buf_policy}
    swept against pool size under an incast burst. Each point runs the
    same deterministic 80 Mbps burst into a 20 Mbps egress uplink with
    three strict-priority classes, so both the ingress packet pool and
    the egress backlog draw on the shared pool; the report compares
    delivery, drops and per-class occupancy / threshold behaviour.
    Deterministic like the other sweeps. *)

val default_policies : Sdn_switch.Buf_policy.kind list
(** static, complete sharing, DT (alpha 2), adaptive TDT. *)

val default_policy_buffers : int list
(** [16; 64; 256] packet-pool slots. *)

val default_policy_base : seed:int -> Config.t
(** Packet-granularity, 400-packet UDP burst at 80 Mbps into a 20 Mbps
    egress uplink, three strict-priority classes (capacities 32/32/16)
    filled deterministically by source port. *)

val policy_point_config :
  base:Config.t -> policy:Sdn_switch.Buf_policy.kind -> buffer:int -> Config.t
(** The configuration a sweep point runs: [base] with the sharing
    policy armed and the packet-pool capacity substituted. *)

val run_policy :
  ?policies:Sdn_switch.Buf_policy.kind list ->
  ?buffers:int list ->
  ?jobs:int ->
  base:Config.t ->
  unit ->
  Experiment.result list
(** Run the sweep: one {!policy_point_config} experiment per policy x
    pool size, in deterministic order (policies outer, sizes inner). *)

val policy_report : Experiment.result list -> string
(** Deterministic plain-text report of {!run_policy}'s results: one
    table row per point (delivery, drops, buffered-packet fallbacks,
    pool high-water mark, pool rejections, misroutes, forwarding delay)
    plus each point's per-class occupancy / threshold / admission
    lines. *)

val print_policy_report : Experiment.result list -> unit
