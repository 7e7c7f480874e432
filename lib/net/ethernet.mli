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

val read : Bytes.t -> int -> (t, string) result
(** Parse at the given offset. *)

val equal : t -> t -> bool
