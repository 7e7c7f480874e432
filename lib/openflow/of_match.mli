(** OpenFlow 1.0 flow match ([ofp_match], 40 bytes) with wildcards.

    Each field is optional: [None] means wildcarded. Network addresses
    carry a prefix length so CIDR wildcarding round-trips through the
    6-bit wildcard sub-fields of the wire format. *)

open Sdn_net

type t = {
  in_port : int option;
  dl_src : Mac.t option;
  dl_dst : Mac.t option;
  dl_vlan : int option;
  dl_vlan_pcp : int option;
  dl_type : int option;
  nw_tos : int option;
  nw_proto : int option;
  nw_src : (Ip.t * int) option;  (** address, prefix bits 1..32 *)
  nw_dst : (Ip.t * int) option;
  tp_src : int option;
  tp_dst : int option;
}

val size : int
(** 40 bytes. *)

val wildcard_all : t
(** Matches every packet. *)

val exact_of_packet : ?in_port:int -> Packet.t -> t
(** The fully-specified match OpenFlow 1.0 derives from a packet: L2
    fields always, L3/L4 fields when present. *)

val of_flow_key : Flow_key.t -> t
(** Match on the transport 5-tuple only (plus [dl_type] = IPv4, which
    OpenFlow requires before IP fields may be matched). *)

val matches : t -> in_port:int -> Packet.t -> bool
(** Does the packet, arriving on [in_port], satisfy the match? Each
    pinned field must equal the field {!exact_of_packet} would pin (an
    address within the prefix); one the packet lacks matches only a
    wildcard. Compares field by field and allocates nothing. *)

val matches_ipv4 :
  t ->
  in_port:int ->
  dl_src:int ->
  dl_dst:int ->
  tos:int ->
  proto:int ->
  src_ip:int ->
  dst_ip:int ->
  src_port:int ->
  dst_port:int ->
  bool
(** {!matches} of an IPv4 TCP or UDP packet given by its header fields
    as immediate ints: the MACs as {!Sdn_net.Mac.to_int}, the addresses
    as unsigned 32-bit ints. Agrees with [matches] on the packet those
    fields came from; allocates nothing. *)

val subsumes : general:t -> specific:t -> bool
(** [subsumes ~general ~specific]: every packet matched by [specific]
    is matched by [general] (conservative for prefixes: requires the
    general prefix to contain the specific one). Used by flow-table
    overlap checks. *)

val write : t -> Bytes.t -> int -> unit
val read : Bytes.t -> int -> (t, string) result

val equal : t -> t -> bool

val hash : t -> int
(** Field-wise and allocation-free; agrees with {!equal} (equal
    matches hash equally), so a match can key a [Hashtbl.Make]
    table. Neither calls into C. *)

val pp : Format.formatter -> t -> unit
