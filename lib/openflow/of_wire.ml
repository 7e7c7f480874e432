let version = 0x01
let header_size = 8
let no_buffer = 0xFFFF_FFFFl

module Port = struct
  let max_physical = 0xFF00
  let in_port = 0xFFF8
  let table = 0xFFF9
  let normal = 0xFFFA
  let flood = 0xFFFB
  let all = 0xFFFC
  let controller = 0xFFFD
  let local = 0xFFFE
  let none = 0xFFFF

  let pp fmt p =
    let s =
      if p = in_port then "IN_PORT"
      else if p = table then "TABLE"
      else if p = normal then "NORMAL"
      else if p = flood then "FLOOD"
      else if p = all then "ALL"
      else if p = controller then "CONTROLLER"
      else if p = local then "LOCAL"
      else if p = none then "NONE"
      else string_of_int p
    in
    Format.pp_print_string fmt s

  module Table = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash p = p
  end)
end

module Msg_type = struct
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

  let to_int = function
    | Hello -> 0
    | Error -> 1
    | Echo_request -> 2
    | Echo_reply -> 3
    | Vendor -> 4
    | Features_request -> 5
    | Features_reply -> 6
    | Get_config_request -> 7
    | Get_config_reply -> 8
    | Set_config -> 9
    | Packet_in -> 10
    | Flow_removed -> 11
    | Port_status -> 12
    | Packet_out -> 13
    | Flow_mod -> 14
    | Port_mod -> 15
    | Stats_request -> 16
    | Stats_reply -> 17
    | Barrier_request -> 18
    | Barrier_reply -> 19

  let of_int = function
    | 0 -> Ok Hello
    | 1 -> Ok Error
    | 2 -> Ok Echo_request
    | 3 -> Ok Echo_reply
    | 4 -> Ok Vendor
    | 5 -> Ok Features_request
    | 6 -> Ok Features_reply
    | 7 -> Ok Get_config_request
    | 8 -> Ok Get_config_reply
    | 9 -> Ok Set_config
    | 10 -> Ok Packet_in
    | 11 -> Ok Flow_removed
    | 12 -> Ok Port_status
    | 13 -> Ok Packet_out
    | 14 -> Ok Flow_mod
    | 15 -> Ok Port_mod
    | 16 -> Ok Stats_request
    | 17 -> Ok Stats_reply
    | 18 -> Ok Barrier_request
    | 19 -> Ok Barrier_reply
    | n -> Error (Printf.sprintf "Of_wire.Msg_type.of_int: unknown type %d" n)

  let to_string = function
    | Hello -> "HELLO"
    | Error -> "ERROR"
    | Echo_request -> "ECHO_REQUEST"
    | Echo_reply -> "ECHO_REPLY"
    | Vendor -> "VENDOR"
    | Features_request -> "FEATURES_REQUEST"
    | Features_reply -> "FEATURES_REPLY"
    | Get_config_request -> "GET_CONFIG_REQUEST"
    | Get_config_reply -> "GET_CONFIG_REPLY"
    | Set_config -> "SET_CONFIG"
    | Packet_in -> "PACKET_IN"
    | Flow_removed -> "FLOW_REMOVED"
    | Port_status -> "PORT_STATUS"
    | Packet_out -> "PACKET_OUT"
    | Flow_mod -> "FLOW_MOD"
    | Port_mod -> "PORT_MOD"
    | Stats_request -> "STATS_REQUEST"
    | Stats_reply -> "STATS_REPLY"
    | Barrier_request -> "BARRIER_REQUEST"
    | Barrier_reply -> "BARRIER_REPLY"

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

type header = { msg_type : Msg_type.t; length : int; xid : int32 }

(* The wire length field is 16 bits; Bytes.set_uint16_be would wrap
   a larger value silently and emit a frame the peer cannot parse.
   Oversized bodies (a stats reply for a huge flow table, say) must
   be split by the sender before framing. *)
let write_header ~msg_type ~length ~xid buf =
  if length > 0xffff then
    invalid_arg "Of_wire.write_header: length exceeds the 16-bit wire field";
  Bytes.set_uint8 buf 0 version;
  Bytes.set_uint8 buf 1 (Msg_type.to_int msg_type);
  Bytes.set_uint16_be buf 2 length;
  Bytes.set_int32_be buf 4 xid

let read_header buf =
  if Bytes.length buf < header_size then Error "Of_wire.read_header: truncated"
  else begin
    let v = Bytes.get_uint8 buf 0 in
    if v <> version then
      Error (Printf.sprintf "Of_wire.read_header: unsupported version 0x%02x" v)
    else begin
      match Msg_type.of_int (Bytes.get_uint8 buf 1) with
      | Error msg -> Error msg
      | Ok msg_type ->
          let length = Bytes.get_uint16_be buf 2 in
          if length < header_size then
            Error "Of_wire.read_header: length smaller than header"
          else if length > Bytes.length buf then
            Error "Of_wire.read_header: length exceeds buffer"
          else Ok { msg_type; length; xid = Bytes.get_int32_be buf 4 }
    end
  end

(* [read_header]'s checks, read in place: [Msg_type.of_int] accepts
   the bytes up to Barrier_reply's. *)
let type_byte buf =
  let n = Bytes.length buf in
  if n < header_size || Bytes.get_uint8 buf 0 <> version then -1
  else begin
    let ty = Bytes.get_uint8 buf 1 and length = Bytes.get_uint16_be buf 2 in
    if ty > Msg_type.to_int Msg_type.Barrier_reply || length < header_size
       || length > n
    then -1
    else ty
  end
