(** IPv4 header (fixed 20-byte form; options are not generated and are
    rejected on parse to keep the datapath model honest about sizes). *)

type t = {
  tos : int;
  ident : int;
  dont_fragment : bool;
  ttl : int;
  proto : int;
  src : Ip.t;
  dst : Ip.t;
}

val size : int
(** 20 bytes. *)

val proto_tcp : int
(** 6 *)

val proto_udp : int
(** 17 *)

val write : t -> payload_len:int -> Bytes.t -> int -> unit
(** Serialize with [total_length = size + payload_len] and a freshly
    computed header checksum. *)

val check : Bytes.t -> int -> (unit, string) result
(** [check buf off] accepts a header at [off] that fits, is version 4
    with no options, carries a valid checksum and a total length of at
    least {!size}. Allocates nothing. The payload it announces may
    still overrun [buf]; {!Packet.validate} checks that. *)

val payload_len : Bytes.t -> int -> int
(** The payload length a header {!check} accepted announces: its total
    length less {!size}. *)

val proto : Bytes.t -> int -> int
(** The protocol number of a header {!check} accepted, read in
    place. *)

val read : Bytes.t -> int -> t
(** The fields of a header {!check} accepted. *)

val equal : t -> t -> bool
