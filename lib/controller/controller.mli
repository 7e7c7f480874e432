(** The SDN controller model (Floodlight stand-in).

    Receives OpenFlow messages from the control link, prices the
    per-message CPU work (parse proportional to carried bytes, app
    decision, reply encoding), and answers each [PACKET_IN] with the
    paper's message pair: a [FLOW_MOD] installing the rule followed by
    a [PACKET_OUT] releasing the miss-match packet. Replies carry the
    request's transaction id so measurement can pair them.

    For the ablation study the release strategy is selectable:
    [`Pair] is what the paper describes; [`Flow_mod_release] rides the
    buffer id inside the [FLOW_MOD] and skips the [PACKET_OUT]
    entirely (saving one message when the packet is buffered). *)

open Sdn_sim

type release_strategy = [ `Pair | `Flow_mod_release ]

type counters = {
  pkt_ins_received : int;
  flow_mods_sent : int;
  pkt_outs_sent : int;
  switch_downs : int;
      (** times the echo keepalive declared the switch session Down *)
  resyncs : int;
      (** handshake replays pushed after a session recovered *)
  crashes : int;  (** injected controller crashes *)
  crash_lost_messages : int;
      (** switch messages that arrived while the process was dead *)
  reconcile_audits : int;
      (** wildcard FLOW stats requests sent by the reconciliation pass *)
  reconcile_installs : int;
      (** entries re-installed because a post-crash audit found them
          missing from the switch *)
}
(** Cumulative controller counters, each read by an experiment result,
    a report or a test. Malformed or misdirected switch frames are
    answered with an OFPT_ERROR, not counted. *)

type t

val create :
  Engine.t ->
  app:App.t ->
  costs:Costs.t ->
  rng:Rng.t ->
  ?check:Sdn_check.Check.t ->
  ?release_strategy:release_strategy ->
  ?echo_interval:float ->
  ?echo_misses:int ->
  unit ->
  t
(** The controller manages exactly one switch over one control
    session, which [create] builds. [release_strategy] defaults to
    [`Pair]. [echo_interval] (default 0: disabled) enables the
    session's echo keepalive; after [echo_misses] (default 3)
    unanswered echoes the session is declared Down and, on recovery,
    the handshake recorded by {!start} is replayed to resync the
    switch's configuration.

    With [check] armed, every emitted message and every session
    transition reports to the invariant checker under the channel name
    ["ctl/sw-0"]. *)

val set_switch_link : t -> Bytes.t Link.t -> unit
(** Attach the controller-to-switch half of the control channel. *)

val handle_message : t -> Bytes.t -> unit
(** Deliver a switch-to-controller message (wired as the receiver of
    the control link). Works without {!start}: the session exists from
    {!create} on, and the first decoded message brings it up. *)

val start :
  t ->
  ?enable_flow_buffer:Sdn_openflow.Of_ext.backoff ->
  ?miss_send_len:int ->
  unit ->
  unit
(** Run the handshake: HELLO then FEATURES_REQUEST; when
    [miss_send_len] is given, configure the switch's PACKET_IN
    truncation via SET_CONFIG; when [enable_flow_buffer] is given, also
    send the vendor message turning on flow-granularity buffering with
    that re-request backoff policy. *)

val install_proactive : t -> Sdn_openflow.Of_flow_mod.t list -> unit
(** Push a batch of FLOW_MODs to the switch outside any request/response
    cycle — the proactive provisioning baseline against which the
    paper's reactive flow setup (and all its overhead) is compared. *)

val switch_downs : t -> int
(** Down declarations of the switch session. *)

(** {1 Crash–restart fault injection}

    The controller process can be killed and later rebooted. While
    dead it neither receives (arriving messages count as
    [crash_lost_messages]) nor emits — in-flight CPU work completing
    during the downtime is discarded at the send boundary. On
    {!restart} the boot cost ({!Costs.t.restart_warm_s} /
    [restart_cold_s]) stalls every core before queued work resumes,
    the session re-enters the reconnect machinery, and its next resync
    runs a flow-state reconciliation pass: audit the switch's flow
    table with a wildcard FLOW stats request, re-install view entries
    the switch lost, re-audit, and give up after 8 audit rounds (a
    [flow-reconciliation] violation under [check]). A {e cold} crash
    additionally wipes the controller's installed-entry view, which is
    then relearnt from the switch's stats replies rather than
    flushed. *)

val crash : t -> mode:Faults.restart_mode -> unit
(** Kill the process. The session is forced Down (timers cancelled, no
    probes — a dead process cannot probe) and marked for
    reconciliation at the next resync. No-op while already dead. *)

val restart : t -> mode:Faults.restart_mode -> unit
(** Reboot after {!crash}. No-op unless dead. *)

val note_switch_disconnect : t -> unit
(** The {e switch's} process crashed: its TCP connection reset. The
    controller-side tracker goes Down immediately (probing for the
    switch's return) and the session is marked for reconciliation when
    it rejoins. *)

val reconcile_events : t -> (float * string) list
(** Reconciliation outcomes, oldest first — one entry per finished
    pass, e.g. ["reconciliation done (sw-0)"] or
    ["reconciliation gave up (sw-0)"] after the bounded rounds ran
    out. *)

val cpu : t -> Cpu.t
val counters : t -> counters
