(** OpenFlow 1.0 wire-level basics: protocol constants, the common
    8-byte message header, and reserved port numbers.

    The header has one writer and one reader, both at offset 0: every
    message lives in a buffer of its own ({!Of_codec.encode}), so
    nothing frames messages at an offset. All multi-byte fields are
    big-endian, as on the wire. *)

val version : int
(** OpenFlow 1.0 = 0x01. *)

val header_size : int
(** 8 bytes. *)

val no_buffer : int32
(** [0xffffffff] — the [buffer_id] value meaning "packet not buffered;
    full frame travels inside the message". *)

(** Reserved/virtual port numbers (OF 1.0, 16-bit port space). *)
module Port : sig
  val max_physical : int
  (** 0xff00 — largest physical port number. *)

  val in_port : int
  val table : int
  val normal : int
  val flood : int
  val all : int
  val controller : int
  val local : int
  val none : int

  val pp : Format.formatter -> int -> unit
  (** Prints reserved ports symbolically. *)

  (** Hash tables keyed by port number. A probe hashes the number
      itself and compares ints: no [caml_hash] and no polymorphic
      compare, both C calls, on every forwarded frame. *)
  module Table : Hashtbl.S with type key = int
end

(** The message-type byte of the common header. *)
module Msg_type : sig
  type t =
    | Hello
    | Error
    | Echo_request
    | Echo_reply
    | Vendor
    | Features_request
    | Features_reply
    | Get_config_request
    | Get_config_reply
    | Set_config
    | Packet_in
    | Flow_removed
    | Port_status
    | Packet_out
    | Flow_mod
    | Port_mod
    | Stats_request
    | Stats_reply
    | Barrier_request
    | Barrier_reply

  val to_int : t -> int
  val of_int : int -> (t, string) result
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

type header = { msg_type : Msg_type.t; length : int; xid : int32 }
(** The common header with the version byte implied ({!version}). *)

val write_header :
  msg_type:Msg_type.t -> length:int -> xid:int32 -> Bytes.t -> unit
(** Serialize at offset 0 of a buffer that is at least
    {!header_size} long. Raises [Invalid_argument] when [length]
    exceeds the 16-bit wire field (65535): the value would otherwise
    wrap silently and frame garbage. *)

val read_header : Bytes.t -> (header, string) result
(** Parse the header at offset 0; checks version, type and that
    [length] is at least {!header_size} and does not exceed the
    buffer. *)

val type_byte : Bytes.t -> int
(** [type_byte buf] is [Msg_type.to_int h.msg_type] when [read_header
    buf] is [Ok h], and [-1] when it is [Error _]: the same checks,
    read in place without allocating. *)
