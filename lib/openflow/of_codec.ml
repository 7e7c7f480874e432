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

let msg_type = function
  | Hello -> Of_wire.Msg_type.Hello
  | Error_msg _ -> Of_wire.Msg_type.Error
  | Echo_request _ -> Of_wire.Msg_type.Echo_request
  | Echo_reply _ -> Of_wire.Msg_type.Echo_reply
  | Vendor _ -> Of_wire.Msg_type.Vendor
  | Features_request -> Of_wire.Msg_type.Features_request
  | Features_reply _ -> Of_wire.Msg_type.Features_reply
  | Get_config_request -> Of_wire.Msg_type.Get_config_request
  | Get_config_reply _ -> Of_wire.Msg_type.Get_config_reply
  | Set_config _ -> Of_wire.Msg_type.Set_config
  | Packet_in _ -> Of_wire.Msg_type.Packet_in
  | Flow_removed _ -> Of_wire.Msg_type.Flow_removed
  | Port_status _ -> Of_wire.Msg_type.Port_status
  | Packet_out _ -> Of_wire.Msg_type.Packet_out
  | Flow_mod _ -> Of_wire.Msg_type.Flow_mod
  | Stats_request _ -> Of_wire.Msg_type.Stats_request
  | Stats_reply _ -> Of_wire.Msg_type.Stats_reply
  | Barrier_request -> Of_wire.Msg_type.Barrier_request
  | Barrier_reply -> Of_wire.Msg_type.Barrier_reply

let body_size = function
  | Hello | Features_request | Get_config_request | Barrier_request
  | Barrier_reply ->
      0
  | Get_config_reply _ | Set_config _ -> Of_config.body_size
  | Flow_removed _ -> Of_flow_removed.body_size
  | Port_status _ -> Of_port_status.body_size
  | Error_msg e -> Of_error.body_size e
  | Echo_request payload | Echo_reply payload -> Bytes.length payload
  | Vendor v -> Of_ext.body_size v
  | Features_reply f -> Of_features.body_size f
  | Packet_in p -> Of_packet_in.body_size p
  | Packet_out p -> Of_packet_out.body_size p
  | Flow_mod f -> Of_flow_mod.body_size f
  | Stats_request r -> Of_stats.request_body_size r
  | Stats_reply r -> Of_stats.reply_body_size r

let size msg = Of_wire.header_size + body_size msg

let encode ~xid msg =
  let length = size msg in
  (* Body writers may skip pad bytes, so the buffer starts zeroed. *)
  let buf = Bytes.make length '\000' in
  Of_wire.write_header ~msg_type:(msg_type msg) ~length ~xid buf;
  let off = Of_wire.header_size in
  (match msg with
  | Hello | Features_request | Get_config_request | Barrier_request
  | Barrier_reply ->
      ()
  | Get_config_reply c | Set_config c -> Of_config.write_body c buf off
  | Flow_removed fr -> Of_flow_removed.write_body fr buf off
  | Port_status ps -> Of_port_status.write_body ps buf off
  | Error_msg e -> Of_error.write_body e buf off
  | Echo_request payload | Echo_reply payload ->
      Bytes.blit payload 0 buf off (Bytes.length payload)
  | Vendor v -> Of_ext.write_body v buf off
  | Features_reply f -> Of_features.write_body f buf off
  | Packet_in p -> Of_packet_in.write_body p buf off
  | Packet_out p -> Of_packet_out.write_body p buf off
  | Flow_mod f -> Of_flow_mod.write_body f buf off
  | Stats_request r -> Of_stats.write_request_body r buf off
  | Stats_reply r -> Of_stats.write_reply_body r buf off);
  buf

let decode buf =
  match Of_wire.read_header buf with
  | Error _ as e -> e
  | Ok header -> (
      let off = Of_wire.header_size in
      let len = header.Of_wire.length - Of_wire.header_size in
      let body =
        match header.Of_wire.msg_type with
        | Of_wire.Msg_type.Hello -> Ok Hello
        | Of_wire.Msg_type.Error ->
            Result.map (fun e -> Error_msg e) (Of_error.read_body buf off ~len)
        | Of_wire.Msg_type.Echo_request ->
            Ok (Echo_request (Bytes.sub buf off len))
        | Of_wire.Msg_type.Echo_reply -> Ok (Echo_reply (Bytes.sub buf off len))
        | Of_wire.Msg_type.Vendor ->
            Result.map (fun v -> Vendor v) (Of_ext.read_body buf off ~len)
        | Of_wire.Msg_type.Features_request -> Ok Features_request
        | Of_wire.Msg_type.Features_reply ->
            Result.map
              (fun f -> Features_reply f)
              (Of_features.read_body buf off ~len)
        | Of_wire.Msg_type.Get_config_request -> Ok Get_config_request
        | Of_wire.Msg_type.Get_config_reply ->
            Result.map (fun c -> Get_config_reply c) (Of_config.read_body buf off ~len)
        | Of_wire.Msg_type.Set_config ->
            Result.map (fun c -> Set_config c) (Of_config.read_body buf off ~len)
        | Of_wire.Msg_type.Flow_removed ->
            Result.map
              (fun fr -> Flow_removed fr)
              (Of_flow_removed.read_body buf off ~len)
        | Of_wire.Msg_type.Port_status ->
            Result.map
              (fun ps -> Port_status ps)
              (Of_port_status.read_body buf off ~len)
        | Of_wire.Msg_type.Packet_in ->
            Result.map (fun p -> Packet_in p) (Of_packet_in.read_body buf off ~len)
        | Of_wire.Msg_type.Packet_out ->
            Result.map
              (fun p -> Packet_out p)
              (Of_packet_out.read_body buf off ~len)
        | Of_wire.Msg_type.Flow_mod ->
            Result.map (fun f -> Flow_mod f) (Of_flow_mod.read_body buf off ~len)
        | Of_wire.Msg_type.Stats_request ->
            Result.map
              (fun r -> Stats_request r)
              (Of_stats.read_request_body buf off ~len)
        | Of_wire.Msg_type.Stats_reply ->
            Result.map
              (fun r -> Stats_reply r)
              (Of_stats.read_reply_body buf off ~len)
        | Of_wire.Msg_type.Barrier_request -> Ok Barrier_request
        | Of_wire.Msg_type.Barrier_reply -> Ok Barrier_reply
        | Of_wire.Msg_type.Port_mod ->
            Error
              (Printf.sprintf "Of_codec.decode: %s not implemented"
                 (Of_wire.Msg_type.to_string header.Of_wire.msg_type))
      in
      match body with
      | Ok msg -> Ok (header.Of_wire.xid, msg)
      | Error _ as e -> e)

(* Every reason [decode] can give maps to one reply: a foreign
   version fails the version negotiation, an unknown (or unimplemented)
   type byte is a type problem, and anything else (a short buffer, a
   length field that lies, a body that does not parse) is a length
   problem. *)
let error_reply buf =
  let bad_len = (Of_error.Bad_request, Of_error.Bad_request_code.bad_len) in
  if Bytes.length buf < Of_wire.header_size then bad_len
  else if Bytes.get_uint8 buf 0 <> Of_wire.version then
    (Of_error.Hello_failed, Of_error.Hello_failed_code.incompatible)
  else
    match Of_wire.Msg_type.of_int (Bytes.get_uint8 buf 1) with
    | Error _ | Ok Of_wire.Msg_type.Port_mod ->
        (Of_error.Bad_request, Of_error.Bad_request_code.bad_type)
    | Ok _ -> bad_len

let peek_xid buf =
  if Bytes.length buf >= Of_wire.header_size then Bytes.get_int32_be buf 4
  else 0l

let packet_in_data_length buf =
  if Of_wire.type_byte buf <> Of_wire.Msg_type.to_int Of_wire.Msg_type.Packet_in
  then -1
  else
    Of_packet_in.data_length buf Of_wire.header_size
      ~len:(Bytes.get_uint16_be buf 2 - Of_wire.header_size)

let equal a b =
  match (a, b) with
  | Hello, Hello
  | Features_request, Features_request
  | Get_config_request, Get_config_request
  | Barrier_request, Barrier_request
  | Barrier_reply, Barrier_reply ->
      true
  | Get_config_reply x, Get_config_reply y | Set_config x, Set_config y ->
      Of_config.equal x y
  | Flow_removed x, Flow_removed y -> Of_flow_removed.equal x y
  | Port_status x, Port_status y -> Of_port_status.equal x y
  | Error_msg x, Error_msg y -> Of_error.equal x y
  | Echo_request x, Echo_request y | Echo_reply x, Echo_reply y -> Bytes.equal x y
  | Vendor x, Vendor y -> Of_ext.equal x y
  | Features_reply x, Features_reply y -> Of_features.equal x y
  | Packet_in x, Packet_in y -> Of_packet_in.equal x y
  | Packet_out x, Packet_out y -> Of_packet_out.equal x y
  | Flow_mod x, Flow_mod y -> Of_flow_mod.equal x y
  | Stats_request x, Stats_request y -> Of_stats.equal_request x y
  | Stats_reply x, Stats_reply y -> Of_stats.equal_reply x y
  | ( ( Hello | Error_msg _ | Echo_request _ | Echo_reply _ | Vendor _
      | Features_request | Features_reply _ | Get_config_request
      | Get_config_reply _ | Set_config _ | Packet_in _ | Flow_removed _
      | Port_status _ | Packet_out _ | Flow_mod _ | Stats_request _
      | Stats_reply _ | Barrier_request | Barrier_reply ),
      _ ) ->
      false

let pp fmt = function
  | Hello -> Format.pp_print_string fmt "hello"
  | Error_msg e -> Of_error.pp fmt e
  | Echo_request p -> Format.fprintf fmt "echo_request{%dB}" (Bytes.length p)
  | Echo_reply p -> Format.fprintf fmt "echo_reply{%dB}" (Bytes.length p)
  | Vendor v -> Of_ext.pp fmt v
  | Features_request -> Format.pp_print_string fmt "features_request"
  | Features_reply f -> Of_features.pp fmt f
  | Get_config_request -> Format.pp_print_string fmt "get_config_request"
  | Get_config_reply c -> Of_config.pp fmt c
  | Set_config c -> Format.fprintf fmt "set_%a" Of_config.pp c
  | Flow_removed fr -> Of_flow_removed.pp fmt fr
  | Port_status ps -> Of_port_status.pp fmt ps
  | Packet_in p -> Of_packet_in.pp fmt p
  | Packet_out p -> Of_packet_out.pp fmt p
  | Flow_mod f -> Of_flow_mod.pp fmt f
  | Stats_request r -> Of_stats.pp_request fmt r
  | Stats_reply r -> Of_stats.pp_reply fmt r
  | Barrier_request -> Format.pp_print_string fmt "barrier_request"
  | Barrier_reply -> Format.pp_print_string fmt "barrier_reply"
