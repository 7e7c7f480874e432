open Sdn_sim
open Sdn_openflow

type direction = To_controller | To_switch

type side = {
  mutable messages : int;
  mutable bytes : int;
  mutable payload_bytes : int;
  times : float array;  (** first and last message; set once [messages > 0] *)
  per_type_messages : int array;  (** indexed by the wire type byte *)
}

type t = { encap_overhead : int; up : side; down : side }

let make_side () =
  {
    messages = 0;
    bytes = 0;
    payload_bytes = 0;
    times = [| 0.0; 0.0 |];
    per_type_messages = Array.make 256 0;
  }

let create ?(encap_overhead = 66) () =
  { encap_overhead; up = make_side (); down = make_side () }

let side t = function To_controller -> t.up | To_switch -> t.down

let observe t direction ~time buf =
  let s = side t direction in
  let payload = Bytes.length buf in
  if s.messages = 0 then s.times.(0) <- time;
  s.times.(1) <- time;
  s.messages <- s.messages + 1;
  s.payload_bytes <- s.payload_bytes + payload;
  s.bytes <- s.bytes + payload + t.encap_overhead;
  let ty = Of_wire.type_byte buf in
  if ty >= 0 then s.per_type_messages.(ty) <- s.per_type_messages.(ty) + 1

let messages t d = (side t d).messages
let bytes t d = (side t d).bytes
let payload_bytes t d = (side t d).payload_bytes

let messages_of_type t d msg_type =
  (side t d).per_type_messages.(Of_wire.Msg_type.to_int msg_type)

let time t d i =
  let s = side t d in
  if s.messages = 0 then None else Some s.times.(i)

let first_time t d = time t d 0
let last_time t d = time t d 1

let load_mbps t d ~window =
  if window <= 0.0 then 0.0
  else Units.bps_to_mbps (Units.bytes_to_bits (side t d).bytes /. window)
