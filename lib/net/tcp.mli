(** TCP header (fixed 20-byte form, no options) with pseudo-header
    checksum. Enough of TCP to model connection setup (SYN / SYN-ACK /
    ACK), data segments and teardown in the paper's Section VI
    discussion experiments; no retransmission state machine lives here
    (see [Sdn_traffic.Patterns]). *)

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

val no_flags : flags
val flags_syn : flags
val flags_syn_ack : flags
val flags_ack : flags
val flags_psh_ack : flags

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : flags;
  window : int;
}

val size : int
(** 20 bytes. *)

val write :
  t -> src_ip:Ip.t -> dst_ip:Ip.t -> payload:Bytes.t -> Bytes.t -> int -> unit
(** Serialize header plus checksum; [payload] must already be in place
    at [off + size]. *)

val check : Bytes.t -> int -> len:int -> (unit, string) result
(** [check buf off ~len] accepts a [len]-byte segment at [off],
    following its IPv4 header, that fits [buf], carries no options and
    whose checksum is valid. Allocates nothing. *)

val read : Bytes.t -> int -> t
(** The fields of a segment {!check} accepted. *)

val equal : t -> t -> bool
