(** 48-bit Ethernet MAC addresses.

    A MAC address is an immediate integer holding the 48-bit value, so
    building, reading and writing one allocates nothing. {!hash} is that
    value and {!compare} orders by it, both exactly as when the address
    was a boxed [int64], so tables hashed through {!hash} keep their
    order. *)

type t
(** A MAC address. Total order and equality are structural. *)

val of_octets : int -> int -> int -> int -> int -> int -> t
(** [of_octets a b c d e f] builds [a:b:c:d:e:f]. Each octet must be in
    [\[0, 255\]]; raises [Invalid_argument] otherwise. *)

val of_int64 : int64 -> t
(** Low 48 bits of the argument. *)

val to_int64 : t -> int64

val to_int : t -> int
(** The 48-bit value, in [\[0, 2^48)]: an immediate int, as {!hash}
    is. *)

val of_string : string -> (t, string) result
(** Parse ["aa:bb:cc:dd:ee:ff"] (case-insensitive). *)

val of_string_exn : string -> t

val to_string : t -> string
(** Lower-case colon-separated form. *)

val broadcast : t
(** [ff:ff:ff:ff:ff:ff]. *)

val zero : t

val is_broadcast : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** The 48-bit value itself, in [\[0, 2^48)]. *)

val pp : Format.formatter -> t -> unit

val write : t -> Bytes.t -> int -> unit
(** [write t buf off] stores the 6 octets at [buf.\[off..off+5\]],
    most significant first. *)

val read : Bytes.t -> int -> t
(** [read buf off] reads 6 octets. Both raise [Invalid_argument] when
    the field does not fit in [buf]. *)
