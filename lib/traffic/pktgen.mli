(** Scheduler turning a {!Patterns} traffic plan into engine events —
    the stand-in for the paper's pktgen host. *)

open Sdn_sim

type stats = { injected : int; bytes : int; first : float; last : float }

val schedule :
  Engine.t -> inject:(in_port:int -> Bytes.t -> unit) -> Patterns.t -> unit
(** Arrange for each injection [i] of the plan to call
    [inject ~in_port:ports.(i) (frame i)] at [times.(i)]: the frame is
    built then, just before [inject] sees it, and the plan holds no
    frame. Injections tie with other engine events as if each had been
    scheduled with {!Engine.schedule_at} in index order at this call
    ({!Engine.schedule_plan}), so two plans scheduled back to back
    dispatch their tied injections first plan first. Only the next
    injection is queued.

    Raises [Invalid_argument], scheduling nothing, if a time is before
    {!Engine.now}, NaN or before its predecessor (every {!Patterns}
    plan is nondecreasing), or if [ports] and [times] differ in
    length. *)

val stats_of : Patterns.t -> stats
(** Count, bytes and first and last injection time of a plan. *)

val offered_rate_mbps : stats -> float
(** Application-level sending rate implied by the plan. *)
