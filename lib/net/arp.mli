(** ARP for IPv4 over Ethernet (RFC 826). *)

type oper = Request | Reply

type t = {
  oper : oper;
  sender_mac : Mac.t;
  sender_ip : Ip.t;
  target_mac : Mac.t;
  target_ip : Ip.t;
}

val size : int
(** 28 bytes. *)

val request : sender_mac:Mac.t -> sender_ip:Ip.t -> target_ip:Ip.t -> t
(** A who-has request (target MAC zero). *)

val reply : t -> responder_mac:Mac.t -> t
(** Build the reply matching a request. *)

val write : t -> Bytes.t -> int -> unit

val check : Bytes.t -> int -> (unit, string) result
(** Accepts a packet at the given offset that fits and carries
    Ethernet/IPv4 address types and lengths and a request or reply
    operation. Allocates nothing on success. *)

val read : Bytes.t -> int -> t
(** The fields of a packet {!check} accepted. *)

val equal : t -> t -> bool
