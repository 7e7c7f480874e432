(** The OpenFlow switch model.

    Wires together the flow table, the buffer pools, the kernel and
    userspace CPUs and the ASIC-to-CPU bus, and implements the three
    miss-handling mechanisms the paper compares:

    - {b No_buffer}: every miss-match packet travels entirely to the
      controller inside the [PACKET_IN], and comes back entirely inside
      the [PACKET_OUT];
    - {b Packet_granularity}: the default OpenFlow buffer — each
      miss-match packet is stored locally, gets its own [buffer_id] and
      still triggers its own [PACKET_IN] (now carrying only
      [miss_send_len] bytes);
    - {b Flow_granularity}: the paper's mechanism — all miss-match
      packets of one flow share a unit and a [buffer_id]; only the
      first triggers a [PACKET_IN]; one [PACKET_OUT] releases the whole
      chain (Algorithms 1 and 2).

    Both buffered mechanisms fall back to the no-buffer behaviour when
    the pool is exhausted, exactly as the paper observes for buffer-16
    above ~30 Mbps.

    The mechanism can also be switched at runtime by the controller
    through the {!Sdn_openflow.Of_ext} vendor messages. An enable whose
    backoff fails {!Flow_buffer.valid_backoff}, or sent to a switch
    built with [buffer_capacity = 0], is refused with an OFPT_ERROR
    (Bad_request, EPERM) and changes nothing; such a switch also
    ignores a disable, so it stays no-buffer. *)

open Sdn_sim
open Sdn_openflow

type mechanism = No_buffer | Packet_granularity | Flow_granularity

val mechanism_to_string : mechanism -> string

type config = {
  mechanism : mechanism;
  buffer_capacity : int;
      (** units; 0 forces [No_buffer] for the switch's whole life *)
  miss_send_len : int;  (** PACKET_IN data bytes when buffered *)
  resend_timeout : float;
      (** flow-granularity base re-request delay, seconds. Successive
          re-requests back off by {!Session.backoff_multiplier} up to
          {!Session.backoff_cap}, each jittered by ±10%, until the
          controller's vendor enable sets its own policy. It is also
          the first reconnect probe delay *)
  max_resends : int;
  flow_table_capacity : int;
      (** rules; at capacity an install evicts the least recently used
          rule of minimal priority *)
  echo_interval : float;
      (** keepalive echo period, seconds; [<= 0] disables the liveness
          machinery entirely (the pre-session behaviour) *)
  echo_misses : int;
      (** unanswered echoes before the controller session is declared
          Down and the switch degrades *)
  fail_mode : Session.fail_mode;
      (** what to do with miss-match traffic while Down *)
  overload_watermark : float;
      (** admission-control high watermark as a fraction of buffer
          capacity: once occupancy reaches it, {e new} miss chains are
          shed with a typed drop reason instead of crowding in-flight
          ones (appends to live chains are still admitted). [1.0] (the
          default) disables the guard *)
  buf_policy : Buf_policy.kind option;
      (** shared-buffer sharing discipline. [None] (the default) keeps
          the legacy private static partitions — runs are byte-identical
          to the pre-policy behaviour. [Some kind] routes the packet
          pool and every QoS queue's admissions through one switch-wide
          {!Buf_policy} pool *)
  shared_headroom : int;
      (** extra physical capacity (units) granted to the shared pool on
          top of the per-class quotas; the slack non-static policies
          can move between classes. Ignored without [buf_policy] *)
}

val default_config : config

val reclaim_lag : float
(** 3.2 ms: how long a freed buffer unit of either pool stays
    unusable (deferred reclamation). A packet-granularity unit ages out
    after 1 s, and the flow table's timeouts are swept every second. *)

type counters = {
  frames_forwarded : int;
  frames_dropped : int;
  pkt_ins_sent : int;
  pkt_in_resends : int;
  full_packet_fallbacks : int;
      (** misses handled without a buffer unit (pool empty / non-flow
          packet under flow granularity / no-buffer mode) *)
  standalone_frames : int;
      (** miss-match frames carried by the fail-standalone L2 path *)
  fail_secure_drops : int;
      (** miss-match frames dropped (or frozen chains refused for lack
          of space) while Down in fail-secure mode *)
  crashes : int;  (** injected node crashes *)
  crash_lost_frames : int;
      (** data-plane frames black-holed while the process was dead *)
  crash_lost_messages : int;
      (** OpenFlow messages lost while the process was dead *)
  crash_wiped_packets : int;
      (** buffered packets destroyed by cold-restart pool wipes *)
  overload_sheds : int;
      (** new miss chains refused by the admission guard at the
          {!config.overload_watermark} *)
}
(** Cumulative switch counters, each read by an experiment result,
    a report or a test. Malformed controller frames are answered with
    an OFPT_ERROR ({!Sdn_openflow.Of_codec.error_reply}), not
    counted. *)

type t

val create :
  Engine.t ->
  ?check:Sdn_check.Check.t ->
  config:config ->
  costs:Costs.t ->
  rng:Rng.t ->
  unit ->
  t
(** The switch starts unwired; attach ports and the controller link
    before injecting traffic.

    The switch is datapath 1. With [check] armed, the buffer pools,
    the control session and every emitted OpenFlow message report to
    the invariant checker under names prefixed ["sw-1"]. *)

val mechanism : t -> mechanism

val miss_send_len : t -> int
(** Current PACKET_IN truncation length; starts at the configured value
    and is updated by SET_CONFIG from the controller. *)

val set_port : t -> port:int -> Bytes.t Link.t -> unit
(** Attach the egress link of a data port. Ports are 1-based, as in
    OpenFlow, and physical: a port outside [1..0xff00]
    ({!Sdn_openflow.Of_wire.Port.max_physical}) raises
    [Invalid_argument]. A port's hardware address in the FEATURES_REPLY
    is [02:00:00:00:hi:lo], its number's two bytes. *)

val set_port_scheduler :
  t ->
  port:int ->
  policy:Egress_queue.policy ->
  queues:Egress_queue.queue_config list ->
  unit
(** Put a QoS egress scheduler in front of a port (the port must
    already be attached). Frames are classified by the [Enqueue]
    action's queue id; plain [Output] goes to queue 0. *)

val port_scheduler : t -> port:int -> Egress_queue.t option

val shared_pool : t -> Buf_policy.t option
(** The switch-wide shared buffer pool, present once a
    {!config.buf_policy} is configured and the first consumer (packet
    pool or port scheduler) has been created. *)

val flow_pool : t -> Flow_buffer.t option
(** The flow-granularity pool, present once flow granularity has been
    configured or enabled by the controller: its recovery and
    freeze/resume counters. *)

val egress_misrouted : t -> int
(** Frames dropped across all port schedulers because they named a
    queue id no configured queue carries (summed in port order). *)

val set_controller_link : t -> Bytes.t Link.t -> unit
(** Attach the switch-to-controller half of the control channel. *)

val handle_frame : t -> in_port:int -> Bytes.t -> unit
(** Deliver an ingress frame (wired as the receiver of host links).
    The frame is parsed once: {!Sdn_net.Packet.validate} checks it in
    place (a rejected frame is dropped), the flow table is probed with
    a key read from it ({!Flow_table.lookup_frame}), whose slow path
    reads the same key, and a [Packet.t] is built only for a frame
    without a 5-tuple (ARP, raw) or a checker's audit. Frames are
    forwarded as they came in, and buffered frames are released
    without being parsed again. *)

val handle_of_message : t -> Bytes.t -> unit
(** Deliver a controller-to-switch OpenFlow message (wired as the
    receiver of the control link). The switch serves the reactive loop
    and whole-table FLOW and AGGREGATE stats. It refuses, with one
    OFPT_ERROR echoing the xid and no other effect, a FLOW_MOD delete
    ([Flow_mod_failed]/[bad_command]), a header rewrite in a FLOW_MOD
    or PACKET_OUT ([Bad_action]/[bad_type]), a FLOW_MOD asking for
    FLOW_REMOVED ([Flow_mod_failed]/[eperm]), DESC and PORT stats
    ([Bad_request]/[bad_stat]) and filtered FLOW or AGGREGATE stats
    ([Bad_request]/[eperm]). *)

val start : t -> unit
(** Begin periodic housekeeping: the flow-table expiry sweep and — when
    [echo_interval > 0] — the controller-session keepalive loop. *)

val session : t -> Session.t
(** The controller-session state machine. While it reports Down, table
    misses are handled by the configured {!Session.fail_mode} instead
    of PACKET_INs, and flow-granularity chains are frozen; on restore
    the chains that still fit their resend budget are re-requested. *)

(** {2 Crash–restart fault injection} *)

val crash : t -> mode:Faults.restart_mode -> unit
(** Kill the switch process. The control session dies with its timers
    ({!Session.force_down}); data frames and OpenFlow messages arriving
    while dead are counted lost. [`Warm`] keeps the buffer pools (flow
    chains freeze and replay on rejoin); [`Cold`] wipes both pools
    (expiring every held chain into the conservation ledger and
    asserting the cold-restart-wipe invariant), clears the flow table
    and resets the soft configuration to power-on defaults. No-op
    while already dead. *)

val restart : t -> unit
(** Reboot after {!crash}: re-enter the reconnect machinery; the first
    answered probe restores the session, resumes frozen chains and
    triggers the controller's resync/reconciliation. No-op unless
    dead. *)

(** {2 Introspection for measurement} *)

val kernel_cpu : t -> Cpu.t
val userspace_cpu : t -> Cpu.t
val flow_table : t -> Flow_table.t
val counters : t -> counters

val buffer_units : t -> Buffer_units.t option
(** The unit pool of the active mechanism, once created: the flow pool
    under flow granularity, the packet pool under packet granularity,
    none under no-buffer. Buffer statistics, the overload guard and an
    experiment's occupancy read it. *)

val buffer_stats : t -> Of_ext.stats
(** Unified pool statistics for whichever mechanism is active. Under
    [No_buffer] every count is 0, as the FEATURES_REPLY's [n_buffers]
    is. *)

val cpu_busy_core_seconds : t -> float
(** Combined kernel + userspace busy integral — the quantity behind
    the paper's "switch usages" (CPU percent of the OVS process). *)
