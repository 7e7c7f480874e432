(** Exact-match microflow cache — the switch's fast path.

    Open vSwitch splits packet classification into a slow path (full
    flow-table lookup with wildcard matching) and a fast path (an
    exact-match cache keyed on the packet's entire header projection);
    "An Empirical Model of Packet Processing Delay of the Open vSwitch"
    measures exactly this split. This module is the cache: a bounded
    table from a packet's match-relevant header fields to the result of
    the last slow-path lookup for an identical packet.

    The cache is {e sound by construction}: the key covers every field
    {!Sdn_openflow.Of_match.matches} can consult (ingress port, both
    MACs, ToS, and the IPv4 5-tuple), so two packets with equal keys
    are indistinguishable to every possible rule, and {!Flow_table}
    flushes the cache on any table mutation (flow-mod, expiry,
    eviction). Packets without a flow key (ARP, raw L3/L4) never enter
    the cache and always take the slow path.

    A key is five immediate ints read straight from a frame
    {!Sdn_net.Packet.validate} accepted, or from a [Packet.t]; the two
    agree on every frame. The table is open-addressed over one int
    array and allocates nothing until its first {!add}; a {!find} and
    a {!flush} allocate nothing. *)

open Sdn_net

type key
(** A packet's match-relevant header projection: a mutable scratch
    value, loaded afresh for each lookup. *)

val key : unit -> key
(** A fresh scratch key. *)

val load_frame : key -> in_port:int -> Bytes.t -> bool
(** [load_frame k ~in_port frame] loads the key of a frame that
    {!Sdn_net.Packet.validate} accepted into [k], reading it in place.
    [false] (leaving [k] unspecified) for frames that cannot be cached
    (no IPv4 TCP/UDP 5-tuple). Allocates nothing. *)

val load_packet : key -> in_port:int -> Packet.t -> bool
(** The same key from a packet: on [Packet.build frame] it loads what
    {!load_frame} loads from [frame]. *)

type 'v t
(** A cache mapping keys to ['v] (the flow table stores the full
    lookup result, [Flow_entry.t option] — negative results are cached
    too, since a miss is the expensive case the paper measures). *)

val create : unit -> 'v t
(** The cache holds at most 8192 entries; on overflow the whole cache
    is reset (deterministic, and invisible in steady state). The slot
    arrays are allocated at the first {!add} and grow by doubling to
    at most 16384 slots. *)

val find : 'v t -> key -> 'v option
(** Cached result for the key, counting a hit or miss. Returns the
    option stored at {!add}, so a hit allocates nothing. *)

val add : 'v t -> key -> 'v -> unit

val flush : 'v t -> unit
(** Drop every entry (called by {!Flow_table} on any mutation) by
    bumping the table's generation: constant time, whatever the table
    holds. Dropped values stay referenced until their slots are
    reused or the table grows. *)

(** {2 Introspection} *)

val length : 'v t -> int
val hits : 'v t -> int
(** Lookups answered from the cache. *)

val misses : 'v t -> int
(** Lookups that fell through to the slow path (and populated the
    cache). *)

val flushes : 'v t -> int
(** Invalidation events (table mutations plus overflow resets). *)
