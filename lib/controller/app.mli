(** Controller application interface.

    An application receives the decoded context of a [PACKET_IN] and
    returns a forwarding decision; the controller core turns the
    decision into [FLOW_MOD] / [PACKET_OUT] messages and prices the
    CPU work. A forward always installs a rule for the flow, with no
    hard timeout, as the paper's Floodlight forwarding module does. *)

open Sdn_net

type context = {
  in_port : int;
  headers : Packet.headers;
  flow_key : Flow_key.t option;
  buffer_id : int32;  (** {!Sdn_openflow.Of_wire.no_buffer} if unbuffered *)
  total_len : int;
}

type forward = { out_port : int; idle_timeout : int }

type forward_queued = {
  f : forward;
  queue_id : int32;  (** egress class for the QoS scheduler *)
}

type decision =
  | Forward of forward
  | Forward_queued of forward_queued
      (** like [Forward] but through an [Enqueue] action *)
  | Flood  (** PACKET_OUT to FLOOD, no rule installed *)

type t = {
  name : string;
  decide : context -> decision;
}
