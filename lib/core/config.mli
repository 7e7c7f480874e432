(** One experiment run's configuration. *)

type mechanism = Sdn_switch.Switch.mechanism =
  | No_buffer
  | Packet_granularity
  | Flow_granularity

type fail_mode = Sdn_switch.Session.fail_mode =
  | Fail_secure
  | Fail_standalone
      (** what the switch does with miss-match traffic while its
          controller session is Down (OpenFlow 1.0 fail modes) *)

type workload =
  | Exp_a of { n_flows : int }
      (** Section IV: single-packet flows with forged sources. *)
  | Exp_b of { n_flows : int; packets_per_flow : int; concurrent : int }
      (** Section V: multi-packet flows in cross-sequence batches. *)
  | Udp_burst of { n_packets : int }
      (** Section VI.A: one sudden many-packet UDP flow. *)
  | Poisson_flows of { n_flows : int }
      (** Analytical-validation regime: single-packet flows arriving
          as a Poisson process — every packet a miss
          ({!Sdn_traffic.Patterns.poisson_flows}). *)
  | Poisson_mix of { n_packets : int; miss_fraction : float }
      (** Analytical-validation regime: Poisson arrivals split between
          a primed long-lived flow and fresh single-packet flows with
          packet-in probability [miss_fraction]
          ({!Sdn_traffic.Patterns.poisson_mix}). *)

type qos = {
  classify : Sdn_controller.App.context -> int32;
      (** maps each new flow to an egress class *)
  policy : Sdn_switch.Egress_queue.policy;
  queues : Sdn_switch.Egress_queue.queue_config list;
}
(** Egress QoS scheduling (the paper's Section VII future work): when
    set, the controller installs [Enqueue] actions chosen by
    [classify] and both host-facing ports get a scheduler. *)

type t = {
  mechanism : mechanism;
  buffer_capacity : int;
  rate_mbps : float;
  frame_size : int;
  workload : workload;
  seed : int;
  release_strategy : Sdn_controller.Controller.release_strategy;
  faults : Sdn_sim.Faults.spec;
      (** control-channel fault plan (independent loss, bursts, jitter,
          outages, crashes); {!Sdn_sim.Faults.none} on the paper's wired
          testbed. Each direction gets its own deterministic plan
          instance *)
  miss_send_len : int;
      (** bytes of a buffered packet carried in the PACKET_IN (128 in
          OpenFlow 1.0 and in the paper) *)
  resend_timeout : float;
      (** flow-granularity base re-request delay, seconds; later
          re-requests back off as {!Sdn_switch.Switch.config} describes *)
  max_resends : int;
      (** unanswered re-requests before a buffered chain is abandoned *)
  flow_table_capacity : int;
  rule_idle_timeout : int;  (** seconds, for installed rules *)
  echo_interval : float;
      (** control-session keepalive period on both endpoints, seconds;
          [<= 0] (the default) disables the liveness machinery and
          keeps the control channel byte-identical to earlier
          versions *)
  echo_misses : int;
      (** unanswered keepalives before a session is declared Down *)
  fail_mode : fail_mode;
  overload_watermark : float;
      (** switch admission-control high watermark (fraction of buffer
          capacity) past which new miss chains are shed; [1.0] (the
          default) disables the guard *)
  buf_policy : Sdn_switch.Buf_policy.kind option;
      (** shared-buffer sharing discipline across the switch's packet
          pool and QoS queues (the [--buf-policy] CLI flag); [None]
          (the default) keeps the legacy private static partitions and
          byte-identical outputs *)
  qos : qos option;
  egress_bandwidth_bps : float option;
      (** override for the switch-to-host2 link speed (e.g. a slower
          uplink); [None] keeps the calibrated 100 Mbps *)
  check : bool;
      (** arm the runtime protocol-invariant checker ({!Sdn_check})
          across the switch and controller; off by default (the [--check]
          CLI flag, always on in the invariant test suites) *)
  switch_costs : Sdn_switch.Costs.t;
  controller_costs : Sdn_controller.Costs.t;
}

val default : t
(** Packet-granularity buffer-256, 30 Mbps, Exp-A with the paper's
    1000 flows of 1000-byte frames, seed 1. *)

val exp_a :
  mechanism:mechanism -> buffer_capacity:int -> rate_mbps:float -> seed:int -> t
(** The Section IV configurations (no-buffer / buffer-16 /
    buffer-256). *)

val exp_b : mechanism:mechanism -> rate_mbps:float -> seed:int -> t
(** The Section V comparison: 50 flows x 20 packets, batches of 5,
    buffer 256 for both mechanisms. *)

val with_mechanism : t -> mechanism -> t
(** [t] running [mechanism]. A no-buffer configuration has 0 buffer
    units; the other two keep [t]'s [buffer_capacity]. *)

val packets_expected : t -> int
(** Total data packets the workload injects. *)

val label : t -> string
(** Short human-readable tag, e.g. ["buffer-256"] or
    ["flow-granularity"]. *)
