(** Packet-granularity buffer pool — OpenFlow's default buffering, as
    implemented by Open vSwitch.

    Each miss-match packet occupies one buffer unit ({!Buffer_units})
    and gets its own [buffer_id]; the corresponding [PACKET_OUT] (or
    [FLOW_MOD] with buffer id) releases exactly that packet. A buffered
    packet nobody releases is dropped after [expiry] seconds, freeing
    the unit (OVS ages its buffers). A released unit stays in use for
    [reclaim_lag] seconds, which reproduces the occupancy levels of the
    paper's Fig. 8 (buffer-16 exhausting near 30-35 Mbps, buffer-256
    peaking near 80 units at full rate). *)

open Sdn_sim

type t

type take_result =
  | Taken of Bytes.t  (** the stored frame *)
  | Unknown_id  (** stale or never-allocated buffer id *)

val create :
  Engine.t ->
  ?check:Sdn_check.Check.t ->
  ?policy:Buf_policy.cls ->
  ?pool_name:string ->
  capacity:int ->
  expiry:float ->
  reclaim_lag:float ->
  unit ->
  t
(** With [check] armed, every allocation, release and expiry is
    reported to the invariant checker under [pool_name] (default
    ["pkt_pool"]) for buffer-conservation verification. With [policy]
    set, the pool draws on a shared {!Buf_policy} pool: every [alloc]
    must first be admitted by the class, every reclaim returns the
    unit, and each successful {!take} feeds the buffering delay into
    the class's EWMA. *)

val alloc : t -> frame:Bytes.t -> int32 option
(** Store a frame; [None] when every unit is in use or the sharing
    policy refuses the claim (the switch then falls back to sending
    the full packet to the controller). *)

val take : t -> int32 -> take_result
(** Release by id. The frame is returned for forwarding; the unit
    frees after the reclaim lag. *)

val wipe : t -> int
(** Cold-restart state loss ({!Buffer_units.wipe}): every held packet
    expires (counted into {!expired}). Returns how many buffered
    packets were lost. *)

val units : t -> Buffer_units.t
(** The pool's units: capacity and occupancy. *)

val alloc_failures : t -> int
val expired : t -> int

val stale_takes : t -> int
(** Takes answered [Unknown_id]. *)
