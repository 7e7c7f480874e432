(** The switch's flow table: priority matching, capacity with LRU
    eviction, idle/hard timeout expiry — fronted by an OVS-style
    exact-match microflow cache ({!Microflow}).

    Exact 5-tuple rules (the kind a reactive controller installs per
    flow) are hash-indexed on that 5-tuple, and wildcarded rules sit in
    one list. Lookup, insert and strict delete consult only the
    packet's or match's index bucket plus that list, so with few
    wildcarded rules they cost the same at two thousand installed rules
    as at ten. Choosing an eviction victim, non-strict delete and
    expiry visit every entry. The paper's
    root-cause discussion — rules being "kicked out from the size
    limited flow table" — is modelled by [capacity] and eviction.

    Lookup runs in two tiers, mirroring Open vSwitch: the fast path
    answers from the microflow cache when an identical packet (same
    ingress port, MACs, ToS and 5-tuple) was classified since the last
    table mutation; any insert, delete, expiry or eviction flushes the
    cache, so the fast path can never serve a stale entry. With a
    {!Sdn_check.Check} armed, every cache hit is audited against the
    slow path. *)

open Sdn_net
open Sdn_openflow

type t

type insert_result =
  | Installed
  | Replaced  (** an entry with equal match and priority was overwritten *)
  | Evicted of Flow_entry.t  (** installed after evicting this entry *)

val create :
  ?check:Sdn_check.Check.t ->
  ?name:string ->
  ?clock:(unit -> float) ->
  capacity:int ->
  unit ->
  t
(** A table of at most [capacity] rules (at least 1, else
    [Invalid_argument]). At capacity an insert displaces the
    least-recently-used entry of minimal priority, as the paper's
    discussion of TCP rule-eviction assumes.

    With [check] armed, every cache hit re-runs the slow path and
    reports a [microflow-agreement] violation on divergence, stamped
    with [clock ()] (default constantly [0.]) under table [name]. *)

val length : t -> int
val insert : t -> Flow_entry.t -> insert_result

val lookup : t -> in_port:int -> Packet.t -> Flow_entry.t option
(** Highest-priority matching entry, if any — answered from the
    microflow cache when possible. Does not touch flow-entry counters;
    callers decide when a lookup constitutes a forwarding use. *)

val lookup_frame : t -> in_port:int -> Bytes.t -> Flow_entry.t option
(** {!lookup} of a frame {!Sdn_net.Packet.validate} accepted, with the
    same result and counters as [lookup] of [Packet.build frame], from
    the same cache. The cache key is read from the frame in place; a
    [Packet.t] is built only when the slow path runs (a cache miss, a
    frame without a 5-tuple, or, with a checker armed, the audit of a
    hit). A cache hit allocates nothing. *)

val lookup_uncached : t -> in_port:int -> Packet.t -> Flow_entry.t option
(** The pure slow path: a full priority scan that bypasses (and never
    populates) the microflow cache. Used by benchmarks, property tests
    and the checker's audit replay. *)

val delete :
  t -> strict:bool -> ?out_port:int -> match_:Of_match.t -> priority:int -> unit -> int
(** OpenFlow [Delete]/[Delete_strict]: remove matching entries, return
    how many were removed. Non-strict removes every entry subsumed by
    [match_]; strict requires equal match and priority. When
    [out_port] names a physical port, only entries with an output or
    enqueue action to that port qualify (a FLOW_MOD delete's
    [out_port] filter). *)

val expire : t -> now:float -> Flow_entry.t list
(** Remove and return entries whose idle or hard timeout has elapsed. *)

val clear : t -> int
(** Remove every entry and flush the microflow cache — the soft-state
    loss of a cold switch restart. Returns how many entries were
    wiped. Lifetime counters (lookups, hits, evictions, expirations)
    survive; they describe the run, not the table contents. *)

val entries : t -> Flow_entry.t list

val to_stats : t -> now:float -> Of_stats.flow_stats list

(** Lifetime counters. *)

val lookups : t -> int
val misses : t -> int
val evictions : t -> int
val expirations : t -> int

(** Microflow fast-path counters. *)

val microflow_hits : t -> int
val microflow_misses : t -> int
val microflow_flushes : t -> int
val microflow_length : t -> int
