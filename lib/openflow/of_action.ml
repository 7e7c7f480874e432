open Sdn_net

type t =
  | Output of { port : int; max_len : int }
  | Set_vlan_vid of int
  | Set_vlan_pcp of int
  | Strip_vlan
  | Set_dl_src of Mac.t
  | Set_dl_dst of Mac.t
  | Set_nw_src of Ip.t
  | Set_nw_dst of Ip.t
  | Set_nw_tos of int
  | Set_tp_src of int
  | Set_tp_dst of int
  | Enqueue of { port : int; queue_id : int32 }

let output port = Output { port; max_len = 0xFFFF }

(* ofp_action_type values. *)
let type_output = 0
let type_set_vlan_vid = 1
let type_set_vlan_pcp = 2
let type_strip_vlan = 3
let type_set_dl_src = 4
let type_set_dl_dst = 5
let type_set_nw_src = 6
let type_set_nw_dst = 7
let type_set_nw_tos = 8
let type_set_tp_src = 9
let type_set_tp_dst = 10
let type_enqueue = 11

let size = function
  | Output _ | Set_vlan_vid _ | Set_vlan_pcp _ | Strip_vlan | Set_nw_src _
  | Set_nw_dst _ | Set_nw_tos _ | Set_tp_src _ | Set_tp_dst _ ->
      8
  | Set_dl_src _ | Set_dl_dst _ | Enqueue _ -> 16

let rec list_size = function [] -> 0 | a :: rest -> size a + list_size rest

let type_of = function
  | Output _ -> type_output
  | Set_vlan_vid _ -> type_set_vlan_vid
  | Set_vlan_pcp _ -> type_set_vlan_pcp
  | Strip_vlan -> type_strip_vlan
  | Set_dl_src _ -> type_set_dl_src
  | Set_dl_dst _ -> type_set_dl_dst
  | Set_nw_src _ -> type_set_nw_src
  | Set_nw_dst _ -> type_set_nw_dst
  | Set_nw_tos _ -> type_set_nw_tos
  | Set_tp_src _ -> type_set_tp_src
  | Set_tp_dst _ -> type_set_tp_dst
  | Enqueue _ -> type_enqueue

(* Keep this writer closure-free: it sits on the controller's
   flow-mod hot path, where every closure is a minor-heap word the
   scratch encoder promised not to spend. *)
let write_one action buf off =
  let n = size action in
  Bytes.fill buf off n '\000';
  Bytes.set_uint16_be buf off (type_of action);
  Bytes.set_uint16_be buf (off + 2) n;
  (match action with
  | Output { port; max_len } ->
      Bytes.set_uint16_be buf (off + 4) port;
      Bytes.set_uint16_be buf (off + 6) max_len
  | Set_vlan_vid vid -> Bytes.set_uint16_be buf (off + 4) vid
  | Set_vlan_pcp pcp -> Bytes.set_uint8 buf (off + 4) pcp
  | Strip_vlan -> ()
  | Set_dl_src mac | Set_dl_dst mac -> Mac.write mac buf (off + 4)
  | Set_nw_src ip | Set_nw_dst ip -> Ip.write ip buf (off + 4)
  | Set_nw_tos tos -> Bytes.set_uint8 buf (off + 4) tos
  | Set_tp_src port | Set_tp_dst port -> Bytes.set_uint16_be buf (off + 4) port
  | Enqueue { port; queue_id } ->
      Bytes.set_uint16_be buf (off + 4) port;
      Bytes.set_int32_be buf (off + 12) queue_id);
  off + n

let rec write_list actions buf off =
  match actions with
  | [] -> off
  | a :: rest -> write_list rest buf (write_one a buf off)

(* Smallest legal length of an action of wire type [typ]: the 16-byte
   actions read past byte 8, so a corrupted length of 8 on one of them
   must be rejected before the body is read. *)
let min_len typ =
  if typ = type_set_dl_src || typ = type_set_dl_dst || typ = type_enqueue then 16
  else 8

let read_one buf off =
  if off + 8 > Bytes.length buf then Error "Of_action.read: truncated header"
  else begin
    let typ = Bytes.get_uint16_be buf off in
    let len = Bytes.get_uint16_be buf (off + 2) in
    if len < min_len typ || len mod 8 <> 0 || off + len > Bytes.length buf then
      Error "Of_action.read: bad action length"
    else begin
      let action =
        if typ = type_output then
          Ok
            (Output
               {
                 port = Bytes.get_uint16_be buf (off + 4);
                 max_len = Bytes.get_uint16_be buf (off + 6);
               })
        else if typ = type_set_vlan_vid then
          Ok (Set_vlan_vid (Bytes.get_uint16_be buf (off + 4)))
        else if typ = type_set_vlan_pcp then
          Ok (Set_vlan_pcp (Bytes.get_uint8 buf (off + 4)))
        else if typ = type_strip_vlan then Ok Strip_vlan
        else if typ = type_set_dl_src then Ok (Set_dl_src (Mac.read buf (off + 4)))
        else if typ = type_set_dl_dst then Ok (Set_dl_dst (Mac.read buf (off + 4)))
        else if typ = type_set_nw_src then Ok (Set_nw_src (Ip.read buf (off + 4)))
        else if typ = type_set_nw_dst then Ok (Set_nw_dst (Ip.read buf (off + 4)))
        else if typ = type_set_nw_tos then
          Ok (Set_nw_tos (Bytes.get_uint8 buf (off + 4)))
        else if typ = type_set_tp_src then
          Ok (Set_tp_src (Bytes.get_uint16_be buf (off + 4)))
        else if typ = type_set_tp_dst then
          Ok (Set_tp_dst (Bytes.get_uint16_be buf (off + 4)))
        else if typ = type_enqueue then
          Ok
            (Enqueue
               {
                 port = Bytes.get_uint16_be buf (off + 4);
                 queue_id = Bytes.get_int32_be buf (off + 12);
               })
        else Error (Printf.sprintf "Of_action.read: unknown type %d" typ)
      in
      Result.map (fun a -> (a, off + len)) action
    end
  end

let read_list buf off ~len =
  let stop = off + len in
  let rec loop acc o =
    if o = stop then Ok (List.rev acc)
    else if o > stop then Error "Of_action.read_list: actions overrun"
    else begin
      match read_one buf o with
      | Ok (a, next) -> loop (a :: acc) next
      | Error _ as e -> e
    end
  in
  loop [] off

let rewrite_l4_src port = function
  | Packet.Udp (u, p) -> Packet.Udp ({ u with Udp.src_port = port }, p)
  | Packet.Tcp (t, p) -> Packet.Tcp ({ t with Tcp.src_port = port }, p)
  | Packet.Raw_l4 _ as l4 -> l4

let rewrite_l4_dst port = function
  | Packet.Udp (u, p) -> Packet.Udp ({ u with Udp.dst_port = port }, p)
  | Packet.Tcp (t, p) -> Packet.Tcp ({ t with Tcp.dst_port = port }, p)
  | Packet.Raw_l4 _ as l4 -> l4

let rewrite_ip f (pkt : Packet.t) =
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, l4) -> { pkt with Packet.l3 = Packet.Ipv4 (f ip, l4) }
  | Packet.Arp _ | Packet.Raw_l3 _ -> pkt

let rewrite_l4 f (pkt : Packet.t) =
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, l4) -> { pkt with Packet.l3 = Packet.Ipv4 (ip, f l4) }
  | Packet.Arp _ | Packet.Raw_l3 _ -> pkt

let rec rewrites = function
  | [] -> false
  | ( Set_dl_src _ | Set_dl_dst _ | Set_nw_src _ | Set_nw_dst _ | Set_nw_tos _
    | Set_tp_src _ | Set_tp_dst _ )
    :: _ ->
      true
  | (Output _ | Enqueue _ | Set_vlan_vid _ | Set_vlan_pcp _ | Strip_vlan) :: rest
    ->
      rewrites rest

(* A walk without an accumulator pair: an action list with no header
   rewrite returns [pkt] itself and allocates nothing. *)
let rec rewrite actions pkt =
  match actions with
  | [] -> pkt
  | action :: rest ->
      let pkt =
        match action with
        | Set_dl_src mac ->
            { pkt with Packet.eth = { pkt.Packet.eth with Ethernet.src = mac } }
        | Set_dl_dst mac ->
            { pkt with Packet.eth = { pkt.Packet.eth with Ethernet.dst = mac } }
        | Set_nw_src ip -> rewrite_ip (fun h -> { h with Ipv4.src = ip }) pkt
        | Set_nw_dst ip -> rewrite_ip (fun h -> { h with Ipv4.dst = ip }) pkt
        | Set_nw_tos tos -> rewrite_ip (fun h -> { h with Ipv4.tos = tos }) pkt
        | Set_tp_src port -> rewrite_l4 (rewrite_l4_src port) pkt
        | Set_tp_dst port -> rewrite_l4 (rewrite_l4_dst port) pkt
        | Output _ | Enqueue _ | Set_vlan_vid _ | Set_vlan_pcp _ | Strip_vlan ->
            (* Forwarding is the switch's walk; VLAN tagging is not
               modelled on the data plane. *)
            pkt
      in
      rewrite rest pkt

let equal a b =
  match (a, b) with
  | Output x, Output y -> x.port = y.port && x.max_len = y.max_len
  | Set_vlan_vid x, Set_vlan_vid y -> x = y
  | Set_vlan_pcp x, Set_vlan_pcp y -> x = y
  | Strip_vlan, Strip_vlan -> true
  | Set_dl_src x, Set_dl_src y | Set_dl_dst x, Set_dl_dst y -> Mac.equal x y
  | Set_nw_src x, Set_nw_src y | Set_nw_dst x, Set_nw_dst y -> Ip.equal x y
  | Set_nw_tos x, Set_nw_tos y -> x = y
  | Set_tp_src x, Set_tp_src y | Set_tp_dst x, Set_tp_dst y -> x = y
  | Enqueue x, Enqueue y -> x.port = y.port && Int32.equal x.queue_id y.queue_id
  | ( ( Output _ | Set_vlan_vid _ | Set_vlan_pcp _ | Strip_vlan | Set_dl_src _
      | Set_dl_dst _ | Set_nw_src _ | Set_nw_dst _ | Set_nw_tos _ | Set_tp_src _
      | Set_tp_dst _ | Enqueue _ ),
      _ ) ->
      false

let pp fmt = function
  | Output { port; max_len } ->
      Format.fprintf fmt "output(%a, max_len=%d)" Of_wire.Port.pp port max_len
  | Set_vlan_vid v -> Format.fprintf fmt "set_vlan_vid(%d)" v
  | Set_vlan_pcp v -> Format.fprintf fmt "set_vlan_pcp(%d)" v
  | Strip_vlan -> Format.fprintf fmt "strip_vlan"
  | Set_dl_src m -> Format.fprintf fmt "set_dl_src(%a)" Mac.pp m
  | Set_dl_dst m -> Format.fprintf fmt "set_dl_dst(%a)" Mac.pp m
  | Set_nw_src i -> Format.fprintf fmt "set_nw_src(%a)" Ip.pp i
  | Set_nw_dst i -> Format.fprintf fmt "set_nw_dst(%a)" Ip.pp i
  | Set_nw_tos v -> Format.fprintf fmt "set_nw_tos(%d)" v
  | Set_tp_src v -> Format.fprintf fmt "set_tp_src(%d)" v
  | Set_tp_dst v -> Format.fprintf fmt "set_tp_dst(%d)" v
  | Enqueue { port; queue_id } ->
      Format.fprintf fmt "enqueue(%d, q=%ld)" port queue_id

let pp_list fmt actions =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    pp fmt actions
