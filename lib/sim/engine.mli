(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending
    events. Components schedule closures to run at future instants;
    running an event may schedule further events. Ties are broken by
    insertion order, so the simulation is fully deterministic.

    The queue is a binary min-heap written for the engine's own
    events. Each event has an int id in a per-engine registry, which
    maps the id to the event and to its heap slot. The heap itself is
    three unboxed arrays, each slot holding a key, (time, insertion
    order), and an id, so a sift moves only floats and ints: it neither
    allocates nor stores a pointer, and the queue allocates only when
    its arrays grow or shrink. A one-shot event ({!schedule_at}) holds
    an id while queued, a plan until its last event runs, and a
    re-armable event ({!event}) for the engine's life; an id freed by
    one event may be given to another, and a handle that has run or
    been cancelled no longer names any. Knowing its slot, a cancelled
    event leaves the queue
    in O(log n) instead of lingering as a tombstone until popped, so
    heavy cancel churn (echo keepalives, backoff timers) neither grows
    the queue nor skews {!pending}. The heap and registry arrays halve
    once occupancy falls to a quarter, so a burst does not pin its
    high-water memory. Events that share a timestamp are dispatched as
    one batch ({!step_batch}).

    Times are in seconds (floats); NaN times and delays are refused.

    Most events come from a few FIFO sources, and each of those keeps
    only its next event queued, as one re-armable {!event}: a traffic
    plan ({!schedule_plan}), a link without jitter ({!Link}) and each
    core of a {!Cpu}. Each message such a source holds back takes its
    insertion order when it is sent ({!reserve}), so it dispatches
    exactly as if it had been scheduled then with {!schedule_at}. The
    queue therefore holds at most one event per plan, per link and per
    CPU core, plus the timers ({!schedule_at}) and jittered link
    deliveries in flight. In every shipped command it peaks below 250
    events (212 in the full [validate] grid, 74 in a 50k-flow
    [massive] shard, whose pending set peaks at 50,026), and
    {!pending} still counts every planned injection and every message
    in a link. *)

type t
(** A simulation engine (clock + event queue). *)

type handle
(** A scheduled event, usable for cancellation (e.g. the
    flow-granularity buffer's re-request timeout is cancelled when the
    controller answers in time). *)

type event
(** A re-armable event: one action, queued at most once at a time, and
    queued again with a new key after it runs. It has no handle and
    cannot be cancelled. *)

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

val schedule_plan : t -> float array -> (int -> unit) -> unit
(** [schedule_plan t times f] runs [f i] when the clock reaches
    [times.(i)], for every index [i] in order. Dispatch is exactly as
    if [schedule_at t times.(i) (fun () -> f i)] had been called for
    each [i] in index order now: the plan takes that block of
    insertion order, so its events tie with other events as those
    calls would have. One re-armable {!event} carries the whole plan:
    only the plan's next event is queued, and it queues its successor
    just before [f i] runs, so an [f i] that raises leaves the rest of
    the plan queued. {!pending} counts the whole plan. Plan events have
    no handles and cannot be cancelled.

    [times] must be nondecreasing, at or after {!now} and free of NaN;
    otherwise [Invalid_argument] is raised and the engine is left
    unchanged. The engine reads [times] as the plan runs, so the
    caller must not change it afterwards. *)

val event : t -> (unit -> unit) -> event
(** [event t action] is an idle event that runs [action] each time it
    is dispatched. *)

val reserve : t -> int
(** [reserve t] takes the next insertion order now, for an event to be
    armed with it later ({!arm}): the event then ties with other events
    as if it had been scheduled with {!schedule_at} at the call.
    {!pending} counts each reserved order until it is armed. *)

val arm : event -> float -> seq:int -> unit
(** [arm ev time ~seq] queues [ev] at [time] with the insertion order
    [seq] taken by {!reserve}. Each reserved order must be armed once.
    Raises [Invalid_argument] if [ev] is queued already, or if [time]
    is before {!now} or NaN. *)

val arm_after : event -> delay:float -> unit
(** [arm_after ev ~delay] queues [ev] at [now + delay] with the next
    insertion order, as [schedule t ~delay] would. Raises
    [Invalid_argument] if [ev] is queued already, or if [delay] is
    negative or NaN. *)

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
(** Number of {e live} events still to run: those queued plus those
    reserved but not queued yet, namely the planned events of
    {!schedule_plan} and the messages waiting behind a link's head.
    Cancelled events are removed immediately and never counted. *)

val processed : t -> int
(** Total number of events executed so far. *)
