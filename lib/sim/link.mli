(** Point-to-point unidirectional link with serialization and
    propagation delay.

    A link is a FIFO: a message of [size] bytes occupies the wire for
    [size * 8 / bandwidth] seconds once the wire is free, then arrives
    at the receiver [propagation] seconds later. The payload type is
    generic: data-plane links carry tagged packets, the control channel
    carries encoded OpenFlow messages, and the switch-internal
    ASIC-to-CPU bus carries transfer descriptors.

    A link holds each payload until delivery and hands the receiver
    the very value it was sent: the control channel moves whole
    encoded messages, so a receiver never reassembles a byte stream,
    and a sender cannot reuse a buffer it has sent.

    A link without jitter (no fault plan, or one whose [jitter_s] is 0)
    delivers in send order: the wire frees up at a time that never
    decreases and the propagation delay is fixed. It keeps its
    messages in flight in a ring, lost ones included, and only the
    oldest is queued in the engine, as one re-armable
    {!Engine.event}. Each message takes its insertion order when it is
    sent ({!Engine.reserve}), and each arrival queues its successor
    before the receiver runs, so delivery is exactly as if every
    message had been scheduled on its own. A delivered slot is
    overwritten with the link's first payload, so the ring keeps no
    delivered payload reachable. {!Engine.pending} counts every
    message in the ring. A link with jitter schedules each message on
    its own, since jitter reorders them.

    Links keep byte and message counters; the control-path-load metric
    (paper Figs. 2 and 9) is computed from these, and an optional
    capture hook plays the role of [tcpdump] on the interface. *)

type 'a t
(** A unidirectional link delivering values of type ['a]. *)

val create :
  Engine.t ->
  name:string ->
  bandwidth_bps:float ->
  propagation_s:float ->
  ?capture:(time:float -> size:int -> 'a -> unit) ->
  ?faults:Faults.t ->
  receiver:('a -> unit) ->
  unit ->
  'a t
(** [create engine ~name ~bandwidth_bps ~propagation_s ~receiver ()] is
    an idle link. [bandwidth_bps] must be positive and [propagation_s]
    at least 0; otherwise, NaN included, [Invalid_argument] is raised.
    [capture], if given, observes every message at the instant its
    transmission begins (what a sniffer on the sending interface
    sees). [receiver] is invoked at delivery time.

    [faults], if given, is the link's loss model: a fault plan
    ({!Faults}) judged once per message at the instant {!send} is
    called. It can drop the message (independent loss, a
    Gilbert–Elliott burst, or a scheduled outage window) or delay its
    delivery by a bounded jitter, which reorders messages in flight.
    A dropped message still occupies the wire; it just never arrives.
    An unreliable control channel is the failure case the
    flow-granularity mechanism's re-request timeout exists for. *)

val send : 'a t -> size:int -> 'a -> unit
(** Enqueue a message of [size] bytes for transmission. Returns
    immediately; delivery happens via the engine. *)

val name : _ t -> string

val bytes_sent : _ t -> int
(** Total bytes accepted for transmission since the last
    {!reset_counters}. *)

val messages_sent : _ t -> int

val busy_until : _ t -> float
(** Virtual time at which the wire becomes free; [<= now] means idle. *)

val backlog_bytes : _ t -> int
(** Bytes accepted but whose transmission has not yet finished. *)

val utilization : _ t -> since:float -> until_:float -> float
(** Fraction of [\[since, until_\]] the wire was busy, in [\[0, 1\]]
    (estimated from bytes sent; exact for a continuously-backlogged
    link). *)

val messages_lost : _ t -> int
(** Messages dropped by the fault plan since creation. *)

val reset_counters : _ t -> unit
