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

val read :
  Bytes.t -> int -> len:int -> src_ip:Ip.t -> dst_ip:Ip.t ->
  (t * int, string) result
(** Parse a segment occupying [len] bytes; returns
    [(header, payload_len)]. *)

val equal : t -> t -> bool
