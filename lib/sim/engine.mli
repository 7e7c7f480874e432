(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending
    events. Components schedule closures to run at future instants;
    running an event may schedule further events. Ties are broken by
    insertion order, so the simulation is fully deterministic.

    The queue is a binary min-heap written for the engine's own
    handles: an array of handles ordered by (time, insertion order),
    compared inline, in which each handle records its own slot. Every
    empty slot holds one shared sentinel handle that is never written,
    instead of an option, so no slot write allocates: the queue
    allocates only when its array grows or shrinks. Knowing its slot, a
    cancelled event leaves the queue in O(log n) instead of lingering
    as a tombstone until popped, so heavy cancel churn (echo
    keepalives, backoff timers) neither grows the queue nor skews
    {!pending}. The array halves once occupancy falls to a quarter, so
    a burst does not pin its high-water memory. Events that share a
    timestamp are dispatched as one batch ({!step_batch}).

    Times are in seconds (floats); NaN times and delays are refused.
    Workloads schedule their whole traffic plan up front, so the
    pending set peaks near the run's packet count: at most 1,567
    events in the figure grid, the chaos sweeps and [validate]'s grids,
    and 50,026 in a default [massive] shard of 50k flows. *)

type t
(** A simulation engine (clock + event queue). *)

type handle
(** A scheduled event, usable for cancellation (e.g. the
    flow-granularity buffer's re-request timeout is cancelled when the
    controller answers in time). *)

val create : ?now:float -> unit -> t
(** Fresh engine with the clock at [now] (default [0.]). *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule_at : t -> float -> (unit -> unit) -> handle
(** [schedule_at t time f] runs [f] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past or NaN. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] is [schedule_at t (now t +. delay) f].
    A negative or NaN [delay] raises [Invalid_argument]. *)

val cancel : handle -> unit
(** Prevent the event from firing and remove it from the queue in
    O(log n). Cancelling an already-fired or already-cancelled event
    is a no-op. *)

val is_cancelled : handle -> bool

val step : t -> bool
(** Run the single earliest pending event. Returns [false] when the
    queue is empty (and nothing was run). *)

val step_batch : t -> int
(** Run {e every} event carrying the earliest pending timestamp —
    including events their actions schedule at that same instant — in
    insertion order, advancing the clock once. Returns the number of
    events executed (0 when the queue is empty). Equivalent to calling
    {!step} repeatedly; exists so the run loop pays the bookkeeping per
    timestamp instead of per event. *)

val run : ?until:float -> t -> unit
(** Run events in order until the queue is empty, or — if [until] is
    given — until the next event would be later than [until], in which
    case the clock is advanced to [until] and remaining events stay
    queued. The clock never moves backwards: an [until] before {!now}
    runs nothing and leaves the clock where it is. *)

val pending : t -> int
(** Number of {e live} events still queued. Cancelled events are
    removed immediately and never counted. *)

val processed : t -> int
(** Total number of events executed so far. *)
