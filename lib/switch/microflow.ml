open Sdn_net

type key = {
  in_port : int;
  dl_src : Mac.t;
  dl_dst : Mac.t;
  nw_tos : int;
  flow : Flow_key.t;
}

(* The key must cover every packet field Of_match.matches can consult:
   in_port, both MACs, the ToS byte, and the 5-tuple. dl_type is
   implied (a flow key only exists for IPv4 TCP/UDP), and dl_vlan never
   matches a simulated packet (Packet.t carries no VLAN tag), so two
   packets with equal keys are indistinguishable to every rule. *)
let key_of_packet ~in_port (pkt : Packet.t) =
  match (Packet.flow_key pkt, pkt.Packet.l3) with
  | Some flow, Packet.Ipv4 (ip, _) ->
      Some
        {
          in_port;
          dl_src = pkt.Packet.eth.Ethernet.src;
          dl_dst = pkt.Packet.eth.Ethernet.dst;
          nw_tos = ip.Ipv4.tos;
          flow;
        }
  | (Some _ | None), _ -> None

let key_equal a b =
  a.in_port = b.in_port && a.nw_tos = b.nw_tos
  && Mac.equal a.dl_src b.dl_src
  && Mac.equal a.dl_dst b.dl_dst
  && Flow_key.equal a.flow b.flow

let key_hash k =
  let h = ref k.in_port in
  let mix x = h := (!h * 131) + x in
  mix (Mac.hash k.dl_src);
  mix (Mac.hash k.dl_dst);
  mix k.nw_tos;
  mix (Flow_key.hash k.flow);
  !h land max_int

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let hash = key_hash
end)

type 'v t = {
  capacity : int;
  table : 'v Key_tbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ?(capacity = 8192) () =
  if capacity <= 0 then invalid_arg "Microflow.create: capacity";
  { capacity; table = Key_tbl.create 256; hits = 0; misses = 0; flushes = 0 }

let find t key =
  match Key_tbl.find_opt t.table key with
  | Some _ as v ->
      t.hits <- t.hits + 1;
      v
  | None ->
      t.misses <- t.misses + 1;
      None

let flush t =
  if Key_tbl.length t.table > 0 then begin
    Key_tbl.reset t.table;
    t.flushes <- t.flushes + 1
  end

let add t key v =
  (* Whole-cache reset on overflow: crude but deterministic, and the
     steady state (a working set far below capacity) never hits it. *)
  if Key_tbl.length t.table >= t.capacity then flush t;
  Key_tbl.replace t.table key v

let length t = Key_tbl.length t.table
let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
