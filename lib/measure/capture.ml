open Sdn_sim
open Sdn_openflow

type direction = To_controller | To_switch

type side = {
  mutable messages : int;
  mutable bytes : int;
  mutable payload_bytes : int;
  mutable first_time : float option;
  mutable last_time : float option;
  per_type_messages : (int, int) Hashtbl.t;
}

type t = { encap_overhead : int; up : side; down : side }

let make_side () =
  {
    messages = 0;
    bytes = 0;
    payload_bytes = 0;
    first_time = None;
    last_time = None;
    per_type_messages = Hashtbl.create 8;
  }

let create ?(encap_overhead = 66) () =
  { encap_overhead; up = make_side (); down = make_side () }

let side t = function To_controller -> t.up | To_switch -> t.down

let observe t direction ~time buf =
  let s = side t direction in
  let payload = Bytes.length buf in
  s.messages <- s.messages + 1;
  s.payload_bytes <- s.payload_bytes + payload;
  s.bytes <- s.bytes + payload + t.encap_overhead;
  if s.first_time = None then s.first_time <- Some time;
  s.last_time <- Some time;
  match Of_codec.peek_type buf with
  | Ok msg_type ->
      let key = Of_wire.Msg_type.to_int msg_type in
      Hashtbl.replace s.per_type_messages key
        (1 + Option.value ~default:0 (Hashtbl.find_opt s.per_type_messages key))
  | Error _ -> ()

let messages t d = (side t d).messages
let bytes t d = (side t d).bytes
let payload_bytes t d = (side t d).payload_bytes

let messages_of_type t d msg_type =
  Option.value ~default:0
    (Hashtbl.find_opt (side t d).per_type_messages (Of_wire.Msg_type.to_int msg_type))

let first_time t d = (side t d).first_time
let last_time t d = (side t d).last_time

let load_mbps t d ~window =
  if window <= 0.0 then 0.0
  else Units.bps_to_mbps (Units.bytes_to_bits (side t d).bytes /. window)
