(** Scheduler turning a {!Patterns} injection plan into engine events —
    the stand-in for the paper's pktgen host. *)

open Sdn_sim

type stats = { injected : int; bytes : int; first : float; last : float }

val schedule :
  Engine.t -> inject:(in_port:int -> Bytes.t -> unit) -> Patterns.injection list -> unit
(** Arrange for each frame to be delivered to [inject] at its time.

    Frames are injected in time order, and frames with equal times in
    list order, so an unsorted list is accepted; they tie with other
    engine events as if each had been scheduled with
    {!Engine.schedule_at} in list order at this call. Only the next
    injection is queued ({!Engine.schedule_plan}), and the plan lets
    go of each frame once it is injected, so a frame the caller and
    [inject] do not keep can be collected. Raises [Invalid_argument],
    scheduling nothing, if a time is before {!Engine.now} or NaN. *)

val stats_of : Patterns.injection list -> stats

val offered_rate_mbps : stats -> float
(** Application-level sending rate implied by the plan. *)
