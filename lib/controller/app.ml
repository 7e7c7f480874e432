open Sdn_net

type context = {
  in_port : int;
  headers : Packet.headers;
  flow_key : Flow_key.t option;
  buffer_id : int32;
  total_len : int;
}

type forward = { out_port : int; idle_timeout : int }

type forward_queued = { f : forward; queue_id : int32 }

type decision =
  | Forward of forward
  | Forward_queued of forward_queued
  | Flood

type t = { name : string; decide : context -> decision }
