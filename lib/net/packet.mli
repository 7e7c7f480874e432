(** Whole Ethernet frames: construction, binary encoding, parsing.

    A [Packet.t] is a structured view of a frame. [encode] produces the
    exact on-wire bytes — the byte counts that drive every
    control-path-load number in the reproduction — and [decode] parses
    them back.

    Parsing is split in two. {!validate} is the one validity check: it
    reads the frame in place and allocates nothing on success. {!build}
    reads the fields of a frame [validate] accepted into a [Packet.t].
    [decode] is the two in turn. The switch validates every frame it
    receives but builds a [Packet.t] only where it needs one: for the
    slow-path classification of a microflow miss, and for a header
    rewrite. *)

type l4 =
  | Udp of Udp.t * Bytes.t  (** header, application payload *)
  | Tcp of Tcp.t * Bytes.t
  | Raw_l4 of int * Bytes.t
      (** unparsed transport: protocol number, payload bytes *)

type l3 =
  | Ipv4 of Ipv4.t * l4
  | Arp of Arp.t
  | Raw_l3 of Bytes.t  (** unparsed network payload *)

type t = { eth : Ethernet.t; l3 : l3 }

val size : t -> int
(** Exact encoded size in bytes (without recomputing the encoding). *)

val encode : t -> Bytes.t
(** Serialize to wire format, computing all checksums. The IPv4 total
    length and the UDP length are 16-bit fields, as is the TCP length
    in the checksum's pseudo-header: a packet whose IPv4 datagram
    exceeds 65,535 bytes (a UDP frame above 65,549 bytes), or whose
    transport segment does, raises [Invalid_argument] instead of
    encoding a wrapped length. *)

val validate : Bytes.t -> (unit, string) result
(** Whether {!decode} accepts the frame, checked in place without
    allocating on success: the Ethernet header fits; for IPv4, the
    version, IHL 5, header checksum, a total length of at least 20
    whose payload fits the frame, and for UDP the length field and the
    checksum (0 meaning unused), for TCP a data offset of 5 and the
    checksum; for ARP the address types and lengths and the operation.
    Other EtherTypes and IPv4 protocols are accepted unparsed. Bytes
    past the IPv4 total length (Ethernet padding) are ignored. *)

val build : Bytes.t -> t
(** The packet of a frame {!validate} accepted. Reads fields only: a
    frame [validate] rejects may raise [Invalid_argument] or give a
    packet that does not encode back to it. *)

val decode : Bytes.t -> (t, string) result
(** Parse a frame: {!validate}, then {!build}. Transport layers of
    IPv4 packets are parsed for UDP and TCP; other protocols come back
    as [Raw_l4]. *)

val flow_key : t -> Flow_key.t option
(** The 5-tuple, if the packet is IPv4 UDP or TCP. *)

val udp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  src_port:int ->
  dst_port:int ->
  payload:Bytes.t ->
  unit ->
  t
(** Build a UDP-in-IPv4-in-Ethernet frame (IPv4 identification 0, TTL
    64, don't-fragment set; so are {!tcp}'s). *)

val udp_frame_of_size :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  src_port:int ->
  dst_port:int ->
  frame_size:int ->
  payload_fill:(Bytes.t -> unit) ->
  t
(** Build a UDP frame whose total encoded size is exactly [frame_size]
    bytes (the paper uses 1000-byte frames). [payload_fill] writes the
    application payload in place (e.g. a pktgen-style tag). Raises
    [Invalid_argument] if [frame_size] is smaller than the combined
    headers (42 bytes). The largest frame {!encode} accepts is 65,549
    bytes (Ethernet header plus a 65,535-byte IPv4 datagram). *)

val tcp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  src_port:int ->
  dst_port:int ->
  ?seq:int32 ->
  ?ack_seq:int32 ->
  ?flags:Tcp.flags ->
  ?window:int ->
  payload:Bytes.t ->
  unit ->
  t

val arp : src_mac:Mac.t -> dst_mac:Mac.t -> Arp.t -> t

val equal : t -> t -> bool

val min_udp_frame : int
(** Header overhead of a UDP frame: Ethernet + IPv4 + UDP = 42 bytes. *)

(** {2 Header peeking}

    A buffered [packet_in] carries only the first [miss_send_len] bytes
    of the frame, so the controller cannot run the validating
    {!decode} (payload checksums cannot be verified on a truncated
    frame). {!peek_headers} parses just the protocol headers. *)

type headers = {
  h_eth : Ethernet.t;
  h_ipv4 : Ipv4.t option;
  h_l4_ports : (int * int) option;  (** (src, dst) for UDP/TCP *)
}

val peek_headers : Bytes.t -> (headers, string) result
(** Parse Ethernet, and when present IPv4 and L4 port, headers from a
    possibly-truncated frame prefix. The IPv4 header checksum is still
    verified (it lies within the prefix); payload integrity is not. *)

val flow_key_of_headers : headers -> Flow_key.t option
(** The 5-tuple of already-peeked headers, if they carry IPv4 and L4
    ports. *)

val peek_flow_key : Bytes.t -> Flow_key.t option
(** The 5-tuple from a possibly-truncated frame prefix: what
    {!peek_headers} followed by {!flow_key_of_headers} gives, read in
    place. On a frame {!validate} accepted it equals
    [flow_key (build frame)]. *)
