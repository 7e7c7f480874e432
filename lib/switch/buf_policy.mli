(** Pluggable shared-buffer management policies.

    The paper sweeps a {e statically partitioned} per-switch buffer
    (16 vs 256 slots) and stops there; the mechanism-design extension
    is to let every consumer of switch buffering — the packet-buffer
    pool and each egress class queue — draw from one {e shared} pool
    through a policy that decides, per admission, whether the claiming
    class may take one more unit.

    Four policies are provided:

    - {b Static partition} ([Static]): each class may hold at most its
      registered quota. This reproduces today's behaviour exactly and
      is the reference the goldens are pinned to.
    - {b Complete sharing} ([Sharing]): any class may claim any free
      unit; nothing is reserved. Maximal utilisation, no isolation.
    - {b Dynamic Threshold} ([Dt]): the classic Choudhury–Hahne rule —
      admit while [len < alpha * free]. The threshold self-adjusts
      with load: as the pool fills, [free] shrinks and so does every
      class's effective limit, always leaving a slack fraction
      unallocated.
    - {b Traffic-aware Dynamic Threshold} ([Tdt]): a TDT/BShare-style
      refinement in which each class's alpha is continuously re-derived
      from its observed queueing delay EWMA and its priority: classes
      whose delay stays at or below the target keep a generous alpha,
      classes whose delay inflates see alpha tightened, pushing the
      shared slack toward the classes that are actually meeting their
      service target.

    All state is per-pool and engine-driven; admission decisions are
    pure functions of the pool counters, so runs are deterministic.
    When a {!Sdn_check.Check.t} is attached, every claim and release is
    reported for the {b shared-pool-conservation} invariant (sum of
    per-class holdings + free = capacity at every ledger event). *)

(** Which sharing discipline governs the pool. *)
type kind =
  | Static  (** per-class quotas, no sharing (reference behaviour) *)
  | Sharing  (** complete sharing: first come, first served *)
  | Dt of { alpha : float }
      (** Dynamic Threshold: admit while [len < alpha * free] *)
  | Tdt of { alpha0 : float; target_delay : float }
      (** adaptive DT: per-class alpha derived from [alpha0], class
          priority and the class's queueing-delay EWMA against
          [target_delay] (seconds) *)

val kind_of_string : string -> (kind, string) result
(** Parse a CLI spelling: ["static"], ["share"], ["dt:ALPHA"] (also
    bare ["dt"], alpha 2), ["tdt"], ["tdt:ALPHA0"] or
    ["tdt:ALPHA0:TARGET_MS"]. *)

val kind_to_string : kind -> string
(** Inverse of {!kind_of_string}; used in labels and reports. *)

type t
(** A shared pool: total capacity (the sum of registered quotas plus
    any headroom granted at creation) and the classes drawing on it. *)

type cls
(** One registered class: its quota, priority, live holdings and
    admission statistics. *)

val create :
  ?check:Sdn_check.Check.t ->
  ?headroom:int ->
  kind:kind ->
  name:string ->
  Sdn_sim.Engine.t ->
  t
(** A fresh pool. [headroom] (default 0) is extra shared capacity on
    top of the per-class quotas — the slack that non-static policies
    can move between classes. [name] identifies the pool in checker
    ledgers and reports. *)

val register :
  t -> name:string -> quota:int -> priority:int -> cls
(** Add a class contributing [quota] units to the pool's capacity.
    [priority] (higher = more important, matching
    {!Egress_queue.queue_config.priority}) feeds the TDT alpha
    derivation. Raises [Invalid_argument] on a duplicate name or
    negative quota. *)

val admit : cls -> bool
(** May this class claim one more unit right now? On [true] the unit
    is claimed (holdings and pool usage increment) and accounted; on
    [false] the rejection is counted and nothing changes. *)

val release : cls -> unit
(** Return one previously-admitted unit to the pool. Raises
    [Invalid_argument] if the class holds nothing. *)

val note_delay : cls -> float -> unit
(** Feed one observed queueing delay (seconds) into the class's EWMA.
    Under [Tdt] this re-derives the class's alpha; under the other
    policies it only updates the statistic. *)

val capacity : t -> int
val free : t -> int

val threshold : cls -> int
(** The class's current admission limit in units: its quota under
    [Static], the whole capacity under [Sharing], and
    [floor (alpha * free)] under [Dt]/[Tdt] (a snapshot — it moves
    with pool occupancy). *)

val alpha : cls -> float
(** Current alpha ([infinity] under [Sharing], [quota/free]-free 0
    semantics do not apply: [Static] reports 0). *)

(** Per-class occupancy/threshold/shed figures for one finished run,
    in registration order. *)
type class_stat = {
  class_name : string;
  quota : int;
  priority : int;
  occupancy_mean : float;  (** time-weighted mean holdings (units) *)
  occupancy_max : int;  (** peak holdings *)
  threshold : int;  (** admission limit at measurement time *)
  alpha : float;  (** alpha at measurement time *)
  admitted : int;  (** units admitted over the run *)
  rejected : int;  (** admission attempts refused by the policy *)
}

val stats : t -> until:float -> class_stat list
(** Snapshot of every class at [until] (virtual seconds), registration
    order. *)

val pp_class_stat : Format.formatter -> class_stat -> unit
