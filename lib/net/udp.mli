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

val read :
  Bytes.t -> int -> len:int -> src_ip:Ip.t -> dst_ip:Ip.t ->
  (t * int, string) result
(** [read buf off ~len ~src_ip ~dst_ip] parses a UDP datagram occupying
    [len] bytes, verifies length and checksum, and returns
    [(header, payload_len)]. *)

val equal : t -> t -> bool
