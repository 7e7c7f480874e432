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
  flows : (int, flow_state) Hashtbl.t;
  pending_requests : (int32, float * int option) Hashtbl.t;
      (** xid -> (send time, flow id when the tag was visible) *)
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
    flows = Hashtbl.create 64;
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

let on_switch_ingress t ~time frame =
  t.packets_in <- t.packets_in + 1;
  match Tag.read_frame frame with
  | None -> ()
  | Some tag ->
      if not (Hashtbl.mem t.flows tag.Tag.flow_id) then
        Hashtbl.add t.flows tag.Tag.flow_id
          {
            first_ingress = time;
            expected_packets = tag.Tag.flow_packets;
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
  match Tag.read_frame frame with
  | None -> ()
  | Some tag -> (
      match Hashtbl.find_opt t.flows tag.Tag.flow_id with
      | None -> ()
      | Some flow ->
          if Option.is_none flow.first_egress then
            flow.first_egress <- Some time;
          flow.egressed <- flow.egressed + 1;
          if flow.egressed = flow.expected_packets then
            finish_flow t flow ~last:time)

let flow_id_of_pkt_in (pkt_in : Of_packet_in.t) =
  Option.map
    (fun tag -> tag.Tag.flow_id)
    (Tag.read_frame pkt_in.Of_packet_in.data)

let on_to_controller t ~time buf =
  match Of_codec.decode buf with
  | Ok (xid, Of_codec.Packet_in pkt_in) ->
      Hashtbl.replace t.pending_requests xid (time, flow_id_of_pkt_in pkt_in)
  | Ok _ | Error _ -> ()

let on_to_switch t ~time buf =
  match Of_wire.read_header buf with
  | Error _ -> ()
  | Ok header -> (
      match header.Of_wire.msg_type with
      | Of_wire.Msg_type.Flow_mod | Of_wire.Msg_type.Packet_out -> (
          match Hashtbl.find_opt t.pending_requests header.Of_wire.xid with
          | None -> t.unmatched <- t.unmatched + 1
          | Some (sent_at, flow_id) ->
              (* Pair with the first response only. *)
              Hashtbl.remove t.pending_requests header.Of_wire.xid;
              let delay = time -. sent_at in
              Stats.add t.controller delay;
              (match flow_id with
              | Some id -> (
                  match Hashtbl.find_opt t.flows id with
                  | Some flow when flow.controller_delay = None ->
                      flow.controller_delay <- Some delay
                  | Some _ | None -> ())
              | None -> ()))
      | _ -> ())

let flow_setup_delays t = t.setup
let controller_delays t = t.controller
let switch_delays t = t.switch
let flow_forwarding_delays t = t.forwarding

let flows_started t = Hashtbl.length t.flows

let flows_completed t =
  (* Commutative count: iteration order cannot change the sum.
     lint: allow hashtbl-order *)
  Hashtbl.fold
    (fun _ f acc -> if f.egressed >= f.expected_packets then acc + 1 else acc)
    t.flows 0

let packets_in t = t.packets_in
let packets_out t = t.packets_out
let unmatched_responses t = t.unmatched
let last_egress_time t = t.last_egress_time
