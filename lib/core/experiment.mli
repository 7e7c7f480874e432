(** Run one configured experiment and collect every metric of the
    paper's Section III.B. *)

open Sdn_sim

type summary = {
  count : int;
  mean : float;
  sd : float;
  min : float;
  max : float;
}

val traffic_start : float
(** Injection lead-in: traffic begins this many seconds into the run,
    after the control-session handshake has settled. The analytical
    validator uses it to undo the lead-in dilution of time-averaged
    metrics. *)

val injections_of : Config.t -> Rng.t -> Sdn_traffic.Patterns.t
(** The traffic plan of [config]'s workload, starting at
    {!traffic_start}, drawn from the given traffic stream. *)

type result = {
  config : Config.t;
  send_window : float;  (** first to last injection, seconds *)
  observe_window : float;  (** first injection to last activity *)
  ctrl_load_up_mbps : float;  (** switch-to-controller control load *)
  ctrl_load_down_mbps : float;
  ctrl_msgs_up : int;
  ctrl_msgs_down : int;
  pkt_ins : int;
  pkt_in_resends : int;
  full_packet_fallbacks : int;
  ctrl_msgs_lost : int;  (** control messages dropped by the loss model *)
  controller_cpu_pct : float;  (** percent of one core; can exceed 100 *)
  switch_cpu_pct : float;
  setup_delay : summary;  (** seconds *)
  controller_delay : summary;
  switch_delay : summary;
  forwarding_delay : summary;
  buffer_mean_in_use : float;
  buffer_max_in_use : int;
  buf_policy : string option;
      (** the configured shared-buffer policy
          ({!Sdn_switch.Buf_policy.kind_to_string}); [None] on default
          runs, whose reports stay byte-identical *)
  pool_classes : Sdn_switch.Buf_policy.class_stat list;
      (** per-class occupancy / threshold / admission summary of the
          switch's shared pool, in registration order; empty when no
          policy is configured *)
  egress_misrouted : int;
      (** frames carrying an [Enqueue] action naming a queue id the
          egress port never configured (dropped, not silently promoted
          to the top-priority class) *)
  flows_started : int;
  flows_completed : int;
  flows_recovered : int;
      (** flow-granularity chains released after >= 1 re-request *)
  flows_abandoned : int;
      (** flow-granularity chains dropped after exhausting resends *)
  recovery_delay : summary;
      (** first miss to release, recovered flows only; seconds *)
  recovery_delay_samples : float array;
      (** raw time-to-recovery samples, for histograms *)
  packets_in : int;
  packets_out : int;
  packets_dropped : int;
  outage_detections : int;
      (** switch-side Down declarations by the echo keepalive *)
  outage_false_positives : int;
      (** Down declarations contradicted by a late keepalive reply *)
  session_downtime : float;  (** cumulative Down/Reconnecting seconds *)
  session_recovery : summary;  (** Down -> Up durations, seconds *)
  session_transitions : (float * string) list;
      (** switch session state timeseries: (time, state name) *)
  standalone_frames : int;
      (** miss-match frames carried by the fail-standalone L2 path *)
  fail_secure_drops : int;
      (** miss-match frames dropped while Down in fail-secure mode *)
  chains_frozen : int;  (** chains whose timers froze at session-down *)
  chains_resumed : int;  (** chains re-requested after reconnect *)
  chains_expired : int;
      (** chains whose resend budget was spent before the outage *)
  controller_downs : int;
      (** controller-side Down declarations for this switch *)
  controller_resyncs : int;
      (** handshake replays (state resync) after recovery *)
  microflow_hits : int;
      (** flow-table lookups answered by the exact-match fast path *)
  microflow_misses : int;
      (** cacheable lookups that fell through to the full table scan *)
  node_crashes : int;
      (** injected switch + controller crashes ([crash=...] fault plan) *)
  packets_lost_to_crash : int;
      (** frames blackholed while a node was dead plus buffered packets
          wiped by a cold switch restart *)
  crash_msgs_lost : int;
      (** control messages that arrived at a dead node *)
  crash_recovery : summary;
      (** time from each injected crash to the first subsequent return
          of the switch session to Up (steady state); seconds *)
  reconcile_audits : int;
      (** wildcard FLOW stats audits sent by post-crash reconciliation *)
  reconcile_installs : int;
      (** flow entries re-installed because an audit found them missing *)
  overload_sheds : int;
      (** new miss chains refused by the buffer-pool admission guard *)
  sim_events : int;
      (** discrete events the engine dispatched over the whole run —
          the numerator of the [massive] scenario's events/s rate
          (deterministic; independent of the queue backend) *)
  crash_events : (float * string) list;
      (** injected crash/restart events merged chronologically with
          reconciliation outcomes: (time, description) *)
  check_violations : int;
      (** protocol-invariant violations recorded by the runtime checker
          (always 0 when the config's [check] flag is off) *)
  check_report : string option;
      (** the checker's violation report; [None] when clean or
          unchecked, so clean [--check] output stays byte-identical *)
}

val run : Config.t -> result

val diff_result : result -> result -> string list
(** Names of the fields on which the two results differ (empty when
    identical). Floats are compared exactly ([Float.compare] = 0, so
    NaN equals NaN): the determinism contract is byte-identical
    output. [config] is excluded — the parallel-equivalence replay
    compares two runs of the {e same} configuration, and the record
    may carry a closure. *)

val equal_result : result -> result -> bool
(** [diff_result a b = \[\]]. *)

val pp_result : Format.formatter -> result -> unit
(** Multi-line human-readable report of a single run. *)
