(** The microflow key: a packet's match-relevant header fields as five
    immediate ints, read in place from a frame.

    Open vSwitch splits packet classification into a slow path (full
    flow-table lookup with wildcard matching) and a fast path (an
    exact-match cache keyed on the packet's entire header projection);
    "An Empirical Model of Packet Processing Delay of the Open vSwitch"
    measures exactly this split. {!Flow_table} keeps that cache, an
    {!Int_table} on this key, and runs its slow path on the key too.

    The key covers every field {!Sdn_openflow.Of_match.matches} can
    consult (ingress port, both MACs, ToS, and the IPv4 5-tuple), so
    two packets with equal keys are indistinguishable to every possible
    rule. Packets without a 5-tuple (ARP, raw L3/L4) have no key. The
    5-tuple's three words ({!load_tuple}) also key the flow table's
    exact index and the flow buffer's chains. Nothing here
    allocates. *)

open Sdn_net

type key = int array
(** Five words: the ingress port, each MAC over an 8-bit field (ToS,
    protocol), and each IPv4 address over its port. A scratch array,
    loaded afresh for each lookup. *)

val words : int
(** 5. *)

val key : unit -> key
(** A fresh scratch key. *)

val load_frame : key -> in_port:int -> Bytes.t -> bool
(** [load_frame k ~in_port frame] loads the key of a frame that
    {!Sdn_net.Packet.validate} accepted into [k], reading it in place.
    [false] (leaving [k] unspecified) for frames without an IPv4
    TCP/UDP 5-tuple. *)

val load_packet : key -> in_port:int -> Packet.t -> bool
(** The same key from a packet: on [Packet.build frame] it loads what
    {!load_frame} loads from [frame]. [false] also for a packet built
    with a ToS, protocol or port wider than its header field. *)

val matches : key -> Sdn_openflow.Of_match.t -> bool
(** {!Sdn_openflow.Of_match.matches} of the packet the key was loaded
    from, read from the key's words. *)

val tuple_words : int
(** 3: the protocol, then each address over its port, as in a key. *)

val load_tuple :
  int array ->
  proto:int ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  src_port:int ->
  dst_port:int ->
  bool
(** Write a 5-tuple's words. [false] (writing nothing) when the protocol is outside 8 bits or a port outside 16:
    packed, such a tuple would alias another. *)

val load_flow_key : int array -> Flow_key.t -> bool
(** {!load_tuple} of a flow key. *)

val tuple_of_key : key -> int array -> unit
(** The 5-tuple words of a loaded key. *)
