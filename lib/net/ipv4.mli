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

val read : Bytes.t -> int -> (t * int, string) result
(** [read buf off] parses the header, verifies the checksum and returns
    [(header, payload_len)]. *)

val equal : t -> t -> bool
