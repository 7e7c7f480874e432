(** UDP header with RFC 768 checksum over the IPv4 pseudo-header. *)

type t = { src_port : int; dst_port : int }

val size : int
(** 8 bytes. *)

val pseudo_header_sum :
  src_ip:Ip.t -> dst_ip:Ip.t -> proto:int -> l4_len:int -> int
(** Running checksum of the IPv4 pseudo-header, shared with {!Tcp}. *)

val write :
  t -> src_ip:Ip.t -> dst_ip:Ip.t -> payload:Bytes.t -> Bytes.t -> int -> unit
(** [write t ~src_ip ~dst_ip ~payload buf off] serializes header plus
    checksum; the caller must have already placed [payload] at
    [off + size] (the checksum covers it in place). *)

val checksum_ok : Bytes.t -> int -> len:int -> proto:int -> bool
(** [checksum_ok buf off ~len ~proto]: the [len]-byte transport segment
    at [off] sums, with its pseudo-header, to a valid checksum. The
    segment must follow its IPv4 header (no options), whose last 8
    bytes are the two addresses; one pass from [off - 8] sums them and
    the segment in place. Shared with {!Tcp}. *)

val check : Bytes.t -> int -> len:int -> (unit, string) result
(** [check buf off ~len] accepts a [len]-byte datagram at [off],
    following its IPv4 header, that fits [buf], whose length field is
    [len] and whose checksum is valid or 0 (unused). Allocates
    nothing. *)

val read : Bytes.t -> int -> t
(** The ports of a datagram {!check} accepted. *)

val equal : t -> t -> bool
