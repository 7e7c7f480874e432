open Sdn_sim
open Sdn_openflow
open Sdn_traffic

type flow_state = {
  first_ingress : float;
  expected_packets : int;
  mutable first_egress : float option;
  mutable egressed : int;
  mutable controller_delay : float option;
}

type t = {
  flows : flow_state Tag.Table.t;
  pending_requests : (int32, float * int) Hashtbl.t;
      (** xid -> (send time, flow id when the tag was visible, else
          [Tag.no_flow]) *)
  setup : Stats.t;
  controller : Stats.t;
  switch : Stats.t;
  forwarding : Stats.t;
  mutable packets_in : int;
  mutable packets_out : int;
  mutable unmatched : int;
  mutable last_egress_time : float;
}

let create () =
  {
    flows = Tag.Table.create 64;
    pending_requests = Hashtbl.create 64;
    setup = Stats.create ();
    controller = Stats.create ();
    switch = Stats.create ();
    forwarding = Stats.create ();
    packets_in = 0;
    packets_out = 0;
    unmatched = 0;
    last_egress_time = 0.0;
  }

(* The data taps see every frame, so they read the tag in place and
   allocate only when a flow starts or first egresses. *)
let flow_id_of frame = Tag.frame_flow_id frame ~off:0 ~len:(Bytes.length frame)

let on_switch_ingress t ~time frame =
  t.packets_in <- t.packets_in + 1;
  let flow_id = flow_id_of frame in
  if flow_id <> Tag.no_flow && not (Tag.Table.mem t.flows flow_id) then
    Tag.Table.add t.flows flow_id
      {
        first_ingress = time;
        expected_packets = Tag.frame_flow_packets frame ~off:0;
        first_egress = None;
        egressed = 0;
        controller_delay = None;
      }

(* All packets out: the flow contributes its setup, switch and
   forwarding delays exactly once. [last] is the time its last packet
   left, so no per-packet time is stored in the long-lived flow
   record. *)
let finish_flow t flow ~last =
  match flow.first_egress with
  | Some first ->
      let setup = first -. flow.first_ingress in
      Stats.add t.setup setup;
      (match flow.controller_delay with
      | Some cd -> Stats.add t.switch (Float.max 0.0 (setup -. cd))
      | None -> ());
      if flow.expected_packets > 1 then
        Stats.add t.forwarding (last -. flow.first_ingress)
  | None -> ()

let on_switch_egress t ~time frame =
  t.packets_out <- t.packets_out + 1;
  t.last_egress_time <- time;
  let flow_id = flow_id_of frame in
  if flow_id <> Tag.no_flow then
    match Tag.Table.find t.flows flow_id with
    | exception Not_found -> ()
    | flow ->
        if Option.is_none flow.first_egress then
          flow.first_egress <- Some time;
        flow.egressed <- flow.egressed + 1;
        if flow.egressed = flow.expected_packets then
          finish_flow t flow ~last:time

(* Where a PACKET_IN's data starts. [Of_codec.packet_in_data_length]
   accepts the PACKET_INs [Of_codec.decode] accepts, and ends their
   data, so the tag too, at the header's length field. *)
let pkt_in_data = Of_wire.header_size + Of_packet_in.fixed_body

let on_to_controller t ~time buf =
  let len = Of_codec.packet_in_data_length buf in
  if len >= 0 then
    Hashtbl.replace t.pending_requests (Of_codec.peek_xid buf)
      (time, Tag.frame_flow_id buf ~off:pkt_in_data ~len)

let flow_mod = Of_wire.Msg_type.to_int Of_wire.Msg_type.Flow_mod
let packet_out = Of_wire.Msg_type.to_int Of_wire.Msg_type.Packet_out

let on_to_switch t ~time buf =
  let ty = Of_wire.type_byte buf in
  if ty = flow_mod || ty = packet_out then begin
    let xid = Of_codec.peek_xid buf in
    match Hashtbl.find t.pending_requests xid with
    | exception Not_found -> t.unmatched <- t.unmatched + 1
    | sent_at, flow_id -> (
        (* Pair with the first response only. *)
        Hashtbl.remove t.pending_requests xid;
        let delay = time -. sent_at in
        Stats.add t.controller delay;
        match Tag.Table.find t.flows flow_id with
        | flow when flow.controller_delay = None ->
            flow.controller_delay <- Some delay
        | _ | (exception Not_found) -> ())
  end

let flow_setup_delays t = t.setup
let controller_delays t = t.controller
let switch_delays t = t.switch
let flow_forwarding_delays t = t.forwarding

let flows_started t = Tag.Table.length t.flows

let flows_completed t =
  (* Commutative count: iteration order cannot change the sum.
     lint: allow hashtbl-order *)
  Tag.Table.fold
    (fun _ f acc -> if f.egressed >= f.expected_packets then acc + 1 else acc)
    t.flows 0

let packets_in t = t.packets_in
let packets_out t = t.packets_out
let unmatched_responses t = t.unmatched
let last_egress_time t = t.last_egress_time
