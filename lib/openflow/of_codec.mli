(** Top-level OpenFlow 1.0 message codec.

    [encode] produces the exact wire bytes (common header included) in
    a buffer of their own; [decode] parses one whole message back.
    Links carry whole messages, so there is no stream to frame. Every
    byte the control channel carries in the reproduction goes through
    this module, so link-level byte counters measure real OpenFlow
    message sizes. *)

type msg =
  | Hello
  | Error_msg of Of_error.t
  | Echo_request of Bytes.t
  | Echo_reply of Bytes.t
  | Vendor of Of_ext.t
  | Features_request
  | Features_reply of Of_features.t
  | Get_config_request
  | Get_config_reply of Of_config.t
  | Set_config of Of_config.t
  | Packet_in of Of_packet_in.t
  | Flow_removed of Of_flow_removed.t
  | Port_status of Of_port_status.t
  | Packet_out of Of_packet_out.t
  | Flow_mod of Of_flow_mod.t
  | Stats_request of Of_stats.request
  | Stats_reply of Of_stats.reply
  | Barrier_request
  | Barrier_reply

val msg_type : msg -> Of_wire.Msg_type.t

val size : msg -> int
(** Encoded size including the 8-byte header. *)

val encode : xid:int32 -> msg -> Bytes.t
(** A fresh buffer of exactly {!size} bytes holding the message. Each
    message gets its own bytes because a link holds the payload until
    delivery. Raises [Invalid_argument] when the message does not fit
    the 16-bit length field. *)

val decode : Bytes.t -> (int32 * msg, string) result
(** Parse one message from the start of the buffer; the buffer must be
    exactly one message long (as delivered by the simulated channel). *)

val peek_type : Bytes.t -> (Of_wire.Msg_type.t, string) result
(** Cheap classification of an encoded message without a full parse —
    what the capture/metrics layer uses per sniffed message. *)

val error_reply : Bytes.t -> Of_error.error_type * int
(** The OFPT_ERROR type and code an endpoint answers a buffer with when
    [decode] rejected it, as the 1.0 spec mandates: a version mismatch
    is [Hello_failed]/[incompatible], an unknown (or unimplemented)
    type byte [Bad_request]/[bad_type], and a short buffer, a lying
    length field or a body that fails to parse [Bad_request]/[bad_len].
    Only meaningful when [decode] returned [Error _]. *)

val peek_xid : Bytes.t -> int32
(** Best-effort xid extraction from a (possibly malformed) buffer: the
    header xid field when at least 8 bytes are present, [0l] otherwise.
    Used to echo the offender's xid back inside an OFPT_ERROR. *)

val equal : msg -> msg -> bool
val pp : Format.formatter -> msg -> unit
