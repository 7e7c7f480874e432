(** OpenFlow 1.0 switch configuration ([GET_CONFIG_REPLY] /
    [SET_CONFIG] body).

    [miss_send_len] is how the controller configures the very quantity
    the paper studies: the number of bytes of a buffered miss-match
    packet that ride inside the [PACKET_IN] ("the actual length of the
    data field in the message depends on how to configure the parameter
    of the pkt_in message", Section IV). *)

type t = {
  flags : int;  (** fragment handling flags; 0 = FRAG_NORMAL *)
  miss_send_len : int;
}

val body_size : int
(** 4 bytes. *)

val write_body : t -> Bytes.t -> int -> unit
val read_body : Bytes.t -> int -> len:int -> (t, string) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
