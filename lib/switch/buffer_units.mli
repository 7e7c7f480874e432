(** Buffer units: the slot allocator under both buffer mechanisms.

    The paper's two mechanisms differ only in what a unit holds: one
    miss-match packet ({!Packet_buffer}) or a flow's whole chain
    ({!Flow_buffer}). The unit itself lives here, once:

    - its [buffer_id]: a 15-bit generation over a 16-bit slot index.
      The generation moves on each time the slot frees, so a stale id
      never names the slot's next unit;
    - claiming it (admitted first by a {!Buf_policy} class, if any) and
      its deferred reclamation: a released unit stays in use for
      [reclaim_lag] seconds, the occupancy behind the paper's Fig. 8;
    - the cold-restart wipe;
    - the checker's buffer-ledger events, under the pool's name;
    - occupancy accounting.

    The allocator holds no payload: each buffer keeps what its units
    hold in its own slot-indexed storage. Free slots are reused most
    recently freed first; a fresh pool hands out slot 0 first. *)

open Sdn_sim

type t

val create :
  Engine.t ->
  ?check:Sdn_check.Check.t ->
  ?policy:Buf_policy.cls ->
  name:string ->
  capacity:int ->
  reclaim_lag:float ->
  unit ->
  t
(** [capacity] must be in [1..0xFFFF], else [Invalid_argument]. With
    [check] armed, every ledger event is reported under pool [name].
    With [policy], a claim must first be admitted by the class, and
    every unit that frees is returned to it. *)

val claim : t -> int
(** Hold a free unit and return its slot, or [-1] when the policy
    refuses or no unit is free (held or still reclaiming). *)

val id : t -> int -> int32
(** The [buffer_id] of the slot's current unit. *)

val held_slot : t -> int32 -> int
(** The slot of the held unit that [id] names, or [-1] when [id] is
    stale (its unit was released, expired or wiped) or never issued. *)

val append : t -> int -> int32
(** One more packet joined the slot's held unit; returns its id. *)

val release : t -> int -> packets:int -> unit
(** The slot's held unit was taken, with [packets] packets. It frees
    after the reclaim lag; the timer is kept in the slot. *)

val expire : t -> int -> unit
(** The slot's held unit is dropped unreleased, and frees now. *)

val wipe : t -> held:(int -> unit) -> unit
(** Cold-restart state loss, in slot-index order so wiped runs stay
    byte-reproducible. [held] clears each held unit's payload and
    timers, then the unit expires. Each reclaiming unit frees now and
    its reclaim timer is cancelled, so it cannot free the slot's next
    unit early. Then the checker's cold-restart-wipe invariant
    confirms that no unit of the pool survived. *)

val capacity : t -> int

val in_use : t -> int
(** Units held or awaiting reclamation. *)

val mean_in_use : t -> until:float -> float
(** Time-weighted mean of {!in_use} since creation. *)

val max_in_use : t -> int
