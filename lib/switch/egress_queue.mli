(** Per-port egress scheduling — the paper's stated future work
    (Section VII: "design egress scheduling mechanisms combining with
    the ingress buffer mechanism proposed in this paper to provide QoS
    guarantee for different applications").

    An egress scheduler sits in front of a port's link. While the wire
    is busy, outgoing frames wait in per-class queues; whenever the
    wire frees, the scheduler picks the next frame:

    - {b Fifo}: one queue, arrival order (what an unscheduled port
      does implicitly);
    - {b Strict_priority}: always serve the non-empty queue with the
      highest priority value;
    - {b Drr}: deficit round robin across queues weighted by their
      [weight] — byte-fair, starvation-free (Shreedhar & Varghese).

    Frames are classified by the OpenFlow [Enqueue] action's queue id
    (an [Output] action lands in queue 0). Each queue has a bounded
    depth; overflow tail-drops, and drops are counted per queue. A
    frame naming a queue id no configured queue carries is a {e typed
    drop}: counted in {!misrouted}, never enqueued — in particular it
    is never promoted into the top-priority class. Queue room may
    optionally be drawn from a shared {!Buf_policy} pool instead of
    each queue's private tail-drop capacity. *)

open Sdn_sim

type policy =
  | Fifo
  | Strict_priority
  | Drr of { quantum : int }  (** bytes added to a queue's deficit per round *)

type queue_config = {
  queue_id : int32;
  priority : int;  (** larger = more important (strict priority) *)
  weight : int;  (** relative share (DRR); must be positive *)
  capacity : int;  (** maximum frames queued before tail drop *)
}

val default_queue : queue_config
(** Queue 0, priority 0, weight 1, capacity 512. *)

type t

val create :
  ?shared:Buf_policy.t * string ->
  Engine.t ->
  link:Bytes.t Link.t ->
  policy:policy ->
  queues:queue_config list ->
  t
(** [queues] must be non-empty and contain distinct ids. With
    [shared = (pool, prefix)] each queue registers a class
    ["<prefix>/q<id>"] in [pool] (quota = its capacity, its priority)
    and admits frames through the pool's sharing policy instead of its
    private capacity. *)

val send : t -> queue_id:int32 option -> Bytes.t -> unit
(** Submit a frame for transmission. [None] (a plain [Output] action)
    goes to queue 0 when configured, else to the first queue. An
    unknown id is counted in {!misrouted} and dropped. *)

val backlog : t -> int
(** Frames waiting across all queues (not counting the one on the
    wire). *)

val sent : t -> queue_id:int32 -> int
val dropped : t -> queue_id:int32 -> int
val total_dropped : t -> int

val misrouted : t -> int
(** Frames submitted with a queue id no configured queue carries
    (typed-dropped at [send]). *)

val queue_delay_stats : t -> queue_id:int32 -> Stats.t
(** Waiting time (enqueue to wire) of the frames of one class. *)
