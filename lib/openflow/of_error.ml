type error_type =
  | Hello_failed
  | Bad_request
  | Bad_action
  | Flow_mod_failed
  | Port_mod_failed
  | Queue_op_failed

type t = { error_type : error_type; code : int; data : Bytes.t }

module Flow_mod_failed_code = struct
  let all_tables_full = 0
  let overlap = 1
  let eperm = 2
  let bad_emerg_timeout = 3
  let bad_command = 4
  let unsupported = 5
end

module Bad_action_code = struct
  let bad_type = 0
end

module Hello_failed_code = struct
  let incompatible = 0
  let eperm = 1
end

module Bad_request_code = struct
  let bad_version = 0
  let bad_type = 1
  let bad_stat = 2
  let bad_vendor = 3
  let bad_subtype = 4
  let eperm = 5
  let bad_len = 6
  let buffer_empty = 7
  let buffer_unknown = 8
end

let make ~error_type ~code ?(data = Bytes.empty) () = { error_type; code; data }

let type_to_int = function
  | Hello_failed -> 0
  | Bad_request -> 1
  | Bad_action -> 2
  | Flow_mod_failed -> 3
  | Port_mod_failed -> 4
  | Queue_op_failed -> 5

let type_of_int = function
  | 0 -> Ok Hello_failed
  | 1 -> Ok Bad_request
  | 2 -> Ok Bad_action
  | 3 -> Ok Flow_mod_failed
  | 4 -> Ok Port_mod_failed
  | 5 -> Ok Queue_op_failed
  | n -> Error (Printf.sprintf "Of_error: unknown error type %d" n)

let body_size t = 4 + Bytes.length t.data

let write_body t buf off =
  Bytes.set_uint16_be buf off (type_to_int t.error_type);
  Bytes.set_uint16_be buf (off + 2) t.code;
  Bytes.blit t.data 0 buf (off + 4) (Bytes.length t.data)

let read_body buf off ~len =
  if len < 4 then Error "Of_error.read_body: truncated"
  else begin
    match type_of_int (Bytes.get_uint16_be buf off) with
    | Error _ as e -> e
    | Ok error_type ->
        Ok
          {
            error_type;
            code = Bytes.get_uint16_be buf (off + 2);
            data = Bytes.sub buf (off + 4) (len - 4);
          }
  end

let equal a b =
  a.error_type = b.error_type && a.code = b.code && Bytes.equal a.data b.data

let type_to_string = function
  | Hello_failed -> "HELLO_FAILED"
  | Bad_request -> "BAD_REQUEST"
  | Bad_action -> "BAD_ACTION"
  | Flow_mod_failed -> "FLOW_MOD_FAILED"
  | Port_mod_failed -> "PORT_MOD_FAILED"
  | Queue_op_failed -> "QUEUE_OP_FAILED"

let pp fmt t =
  Format.fprintf fmt "error{%s code=%d data=%dB}" (type_to_string t.error_type)
    t.code (Bytes.length t.data)
