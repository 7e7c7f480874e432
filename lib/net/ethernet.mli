(** Ethernet II frame header (no 802.1Q tag, no FCS). *)

type t = { dst : Mac.t; src : Mac.t; ethertype : int }

val size : int
(** 14 bytes. *)

val ethertype_ipv4 : int
(** 0x0800 *)

val ethertype_arp : int
(** 0x0806 *)

val write : t -> Bytes.t -> int -> unit
(** Serialize at the given offset; needs {!size} bytes of room. *)

val check : Bytes.t -> int -> (unit, string) result
(** Whether a header fits at the given offset. Allocates nothing. *)

val ethertype : Bytes.t -> int -> int
(** The EtherType of a header {!check} accepted, read in place. *)

val read : Bytes.t -> int -> t
(** The fields of a header {!check} accepted. *)

val equal : t -> t -> bool
