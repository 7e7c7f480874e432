(** Exact-match microflow cache — the switch's fast path.

    Open vSwitch splits packet classification into a slow path (full
    flow-table lookup with wildcard matching) and a fast path (an
    exact-match cache keyed on the packet's entire header projection);
    "An Empirical Model of Packet Processing Delay of the Open vSwitch"
    measures exactly this split. This module is the cache: a bounded
    hash table from a packet's match-relevant header fields to the
    result of the last slow-path lookup for an identical packet.

    The cache is {e sound by construction}: the key covers every field
    {!Sdn_openflow.Of_match.matches} can consult (ingress port, both
    MACs, ToS, and the IPv4 5-tuple), so two packets with equal keys
    are indistinguishable to every possible rule, and {!Flow_table}
    flushes the cache on any table mutation (flow-mod, expiry,
    eviction). Packets without a flow key (ARP, raw L3/L4) never enter
    the cache and always take the slow path. *)

open Sdn_net

type key
(** A packet's match-relevant header projection. *)

val key_of_packet : in_port:int -> Packet.t -> key option
(** [None] for packets that cannot be cached (no IPv4 TCP/UDP
    5-tuple). *)

type 'v t
(** A cache mapping keys to ['v] (the flow table stores the full
    lookup result, [Flow_entry.t option] — negative results are cached
    too, since a miss is the expensive case the paper measures). *)

val create : ?capacity:int -> unit -> 'v t
(** [capacity] (default 8192) bounds the entry count; on overflow the
    whole cache is reset (deterministic, and invisible in steady
    state). Raises [Invalid_argument] if [capacity <= 0]. *)

val find : 'v t -> key -> 'v option
(** Cached result for [key], counting a hit or miss. *)

val add : 'v t -> key -> 'v -> unit

val flush : 'v t -> unit
(** Drop every entry (called by {!Flow_table} on any mutation). *)

(** {2 Introspection} *)

val length : 'v t -> int
val hits : 'v t -> int
(** Lookups answered from the cache. *)

val misses : 'v t -> int
(** Lookups that fell through to the slow path (and populated the
    cache). *)

val flushes : 'v t -> int
(** Invalidation events (table mutations plus overflow resets). *)
