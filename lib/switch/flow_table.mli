(** The switch's flow table: priority matching, capacity with LRU
    eviction, idle/hard timeout expiry — fronted by an OVS-style
    exact-match microflow cache. The paper's root-cause discussion —
    rules being "kicked out from the size limited flow table" — is
    modelled by [capacity] and eviction.

    Lookup runs in two tiers, mirroring Open vSwitch. The fast path
    answers from the cache, an {!Int_table} on the {!Microflow} key,
    when an identical packet (same ingress port, MACs, ToS and 5-tuple)
    was classified since the last table mutation; any insert, delete,
    expiry or eviction flushes it, so it never serves a stale entry. The
    slow path reads the same key words: rules that pin the whole
    5-tuple (the kind a reactive controller installs per flow) sit in
    an exact index, an {!Int_table} on the 5-tuple's three words, and
    every other rule in one wildcard list. Lookup, insert and strict
    delete consult one index bucket plus that list, so with few
    wildcard rules they cost the same at two thousand rules as at ten,
    and a frame's lookup parses nothing and allocates nothing but the
    cached answer. Choosing an eviction victim, non-strict delete and
    expiry visit every entry. With a {!Sdn_check.Check} armed, every
    lookup of a frame is audited against {!lookup_uncached}. *)

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

    With [check] armed, every lookup that the cache or the key-read
    slow path answers is replayed on {!lookup_uncached}, and a
    divergence is a [microflow-agreement] violation, stamped with
    [clock ()] (default constantly [0.]) under table [name]. *)

val length : t -> int
val insert : t -> Flow_entry.t -> insert_result

val lookup : t -> in_port:int -> Packet.t -> Flow_entry.t option
(** Highest-priority matching entry, if any — answered from the
    microflow cache when possible. Does not touch flow-entry counters;
    callers decide when a lookup constitutes a forwarding use. *)

val lookup_frame : t -> in_port:int -> Bytes.t -> Flow_entry.t option
(** {!lookup} of a frame {!Sdn_net.Packet.validate} accepted, with the
    same result and counters as [lookup] of [Packet.build frame], from
    the same cache. The key is read from the frame in place, and a
    cache miss matches the candidate rules against its words; a
    [Packet.t] is built only for a frame without a 5-tuple or, with a
    checker armed, for the audit. A hit allocates nothing, and a miss
    only the cached answer. *)

val lookup_uncached : t -> in_port:int -> Packet.t -> Flow_entry.t option
(** The reference slow path on a packet: the candidate rules, matched
    with {!Sdn_openflow.Of_match.matches}, bypassing (and never
    populating) the microflow cache. Takes frames without a 5-tuple;
    used by benchmarks, property tests and the checker's audit. *)

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
