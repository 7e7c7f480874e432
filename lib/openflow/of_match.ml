open Sdn_net

type t = {
  in_port : int option;
  dl_src : Mac.t option;
  dl_dst : Mac.t option;
  dl_vlan : int option;
  dl_vlan_pcp : int option;
  dl_type : int option;
  nw_tos : int option;
  nw_proto : int option;
  nw_src : (Ip.t * int) option;
  nw_dst : (Ip.t * int) option;
  tp_src : int option;
  tp_dst : int option;
}

let size = 40

(* Wildcard bit positions, per ofp_flow_wildcards. *)
let wc_in_port = 1 lsl 0
let wc_dl_vlan = 1 lsl 1
let wc_dl_src = 1 lsl 2
let wc_dl_dst = 1 lsl 3
let wc_dl_type = 1 lsl 4
let wc_nw_proto = 1 lsl 5
let wc_tp_src = 1 lsl 6
let wc_tp_dst = 1 lsl 7
let nw_src_shift = 8
let nw_dst_shift = 14
let wc_dl_vlan_pcp = 1 lsl 20
let wc_nw_tos = 1 lsl 21

let wildcard_all =
  {
    in_port = None;
    dl_src = None;
    dl_dst = None;
    dl_vlan = None;
    dl_vlan_pcp = None;
    dl_type = None;
    nw_tos = None;
    nw_proto = None;
    nw_src = None;
    nw_dst = None;
    tp_src = None;
    tp_dst = None;
  }

let arp_opcode arp = match arp.Arp.oper with Arp.Request -> 1 | Arp.Reply -> 2

let exact_of_packet ?in_port (pkt : Packet.t) =
  let base =
    {
      wildcard_all with
      in_port;
      dl_src = Some pkt.Packet.eth.Ethernet.src;
      dl_dst = Some pkt.Packet.eth.Ethernet.dst;
      dl_type = Some pkt.Packet.eth.Ethernet.ethertype;
    }
  in
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, l4) -> (
      let with_ip =
        {
          base with
          nw_tos = Some ip.Ipv4.tos;
          nw_proto = Some ip.Ipv4.proto;
          nw_src = Some (ip.Ipv4.src, 32);
          nw_dst = Some (ip.Ipv4.dst, 32);
        }
      in
      match l4 with
      | Packet.Udp (udp, _) ->
          {
            with_ip with
            tp_src = Some udp.Udp.src_port;
            tp_dst = Some udp.Udp.dst_port;
          }
      | Packet.Tcp (tcp, _) ->
          {
            with_ip with
            tp_src = Some tcp.Tcp.src_port;
            tp_dst = Some tcp.Tcp.dst_port;
          }
      | Packet.Raw_l4 _ -> with_ip)
  | Packet.Arp arp ->
      (* OF 1.0 reuses nw fields for ARP addresses and nw_proto for the
         opcode. *)
      {
        base with
        nw_proto = Some (arp_opcode arp);
        nw_src = Some (arp.Arp.sender_ip, 32);
        nw_dst = Some (arp.Arp.target_ip, 32);
      }
  | Packet.Raw_l3 _ -> base

let of_flow_key (key : Flow_key.t) =
  {
    wildcard_all with
    dl_type = Some Ethernet.ethertype_ipv4;
    nw_proto = Some key.Flow_key.proto;
    nw_src = Some (key.Flow_key.src_ip, 32);
    nw_dst = Some (key.Flow_key.dst_ip, 32);
    tp_src = Some key.Flow_key.src_port;
    tp_dst = Some key.Flow_key.dst_port;
  }

(* Field by field, in [exact_of_packet]'s order, with what that match
   would hold for each field read from the packet directly: a rule's
   pinned field must equal the packet's, and a field the packet lacks
   matches only a wildcard. Nothing is allocated. *)
let int_field f (v : int) = match f with None -> true | Some e -> e = v
let mac_field f v = match f with None -> true | Some e -> Mac.equal e v
let absent = function None -> true | Some _ -> false

let ip_field f addr =
  match f with
  | None -> true
  | Some (prefix, bits) -> Ip.matches_prefix ~prefix ~bits addr

let ports_field t ~src ~dst = int_field t.tp_src src && int_field t.tp_dst dst

let matches t ~in_port (pkt : Packet.t) =
  let eth = pkt.Packet.eth in
  int_field t.in_port in_port
  && mac_field t.dl_src eth.Ethernet.src
  && mac_field t.dl_dst eth.Ethernet.dst
  && absent t.dl_vlan && absent t.dl_vlan_pcp
  && int_field t.dl_type eth.Ethernet.ethertype
  &&
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, l4) -> (
      int_field t.nw_tos ip.Ipv4.tos
      && int_field t.nw_proto ip.Ipv4.proto
      && ip_field t.nw_src ip.Ipv4.src
      && ip_field t.nw_dst ip.Ipv4.dst
      &&
      match l4 with
      | Packet.Udp (udp, _) ->
          ports_field t ~src:udp.Udp.src_port ~dst:udp.Udp.dst_port
      | Packet.Tcp (tcp, _) ->
          ports_field t ~src:tcp.Tcp.src_port ~dst:tcp.Tcp.dst_port
      | Packet.Raw_l4 _ -> absent t.tp_src && absent t.tp_dst)
  | Packet.Arp arp ->
      absent t.nw_tos
      && int_field t.nw_proto (arp_opcode arp)
      && ip_field t.nw_src arp.Arp.sender_ip
      && ip_field t.nw_dst arp.Arp.target_ip
      && absent t.tp_src && absent t.tp_dst
  | Packet.Raw_l3 _ ->
      absent t.nw_tos && absent t.nw_proto && absent t.nw_src
      && absent t.nw_dst && absent t.tp_src && absent t.tp_dst

(* [matches] on an IPv4 TCP or UDP packet's fields as immediate ints,
   in the same order; [ip_word] is the prefix test on unsigned 32-bit
   addresses. *)
let mac_word f v = match f with None -> true | Some e -> Mac.to_int e = v

let ip_word f addr =
  match f with
  | None -> true
  | Some (prefix, bits) ->
      if bits < 0 || bits > 32 then invalid_arg "Of_match.matches_ipv4: bits";
      let differ = (Int32.to_int (Ip.to_int32 prefix) lxor addr) land 0xFFFF_FFFF in
      bits = 0 || differ lsr (32 - bits) = 0

let matches_ipv4 t ~in_port ~dl_src ~dl_dst ~tos ~proto ~src_ip ~dst_ip
    ~src_port ~dst_port =
  int_field t.in_port in_port
  && mac_word t.dl_src dl_src
  && mac_word t.dl_dst dl_dst
  && absent t.dl_vlan && absent t.dl_vlan_pcp
  && int_field t.dl_type Ethernet.ethertype_ipv4
  && int_field t.nw_tos tos
  && int_field t.nw_proto proto
  && ip_word t.nw_src src_ip
  && ip_word t.nw_dst dst_ip
  && ports_field t ~src:src_port ~dst:dst_port

let subsumes ~general ~specific =
  let field g s eq =
    match (g, s) with
    | None, _ -> true
    | Some _, None -> false
    | Some gv, Some sv -> eq gv sv
  in
  let prefix_field g s =
    match (g, s) with
    | None, _ -> true
    | Some _, None -> false
    | Some (gp, gb), Some (sp, sb) ->
        gb <= sb && Ip.matches_prefix ~prefix:gp ~bits:gb sp
  in
  field general.in_port specific.in_port ( = )
  && field general.dl_src specific.dl_src Mac.equal
  && field general.dl_dst specific.dl_dst Mac.equal
  && field general.dl_vlan specific.dl_vlan ( = )
  && field general.dl_vlan_pcp specific.dl_vlan_pcp ( = )
  && field general.dl_type specific.dl_type ( = )
  && field general.nw_tos specific.nw_tos ( = )
  && field general.nw_proto specific.nw_proto ( = )
  && prefix_field general.nw_src specific.nw_src
  && prefix_field general.nw_dst specific.nw_dst
  && field general.tp_src specific.tp_src ( = )
  && field general.tp_dst specific.tp_dst ( = )

let wildcards_of t =
  let bit b = function None -> b | Some _ -> 0 in
  let prefix_bits shift = function
    | None -> 63 lsl shift (* all bits of the 6-bit field; >= 32 means ignore *)
    | Some (_, bits) -> (32 - bits) lsl shift
  in
  bit wc_in_port t.in_port
  lor bit wc_dl_vlan t.dl_vlan
  lor bit wc_dl_src t.dl_src
  lor bit wc_dl_dst t.dl_dst
  lor bit wc_dl_type t.dl_type
  lor bit wc_nw_proto t.nw_proto
  lor bit wc_tp_src t.tp_src
  lor bit wc_tp_dst t.tp_dst
  lor prefix_bits nw_src_shift t.nw_src
  lor prefix_bits nw_dst_shift t.nw_dst
  lor bit wc_dl_vlan_pcp t.dl_vlan_pcp
  lor bit wc_nw_tos t.nw_tos

(* Closure- and box-free on purpose: this writer dominates the
   flow-mod encode cost, and the scratch path's zero-allocation
   budget leaves no room for per-call helpers or an Int32 box. The
   22-bit wildcards word is emitted as two u16 halves to stay off
   [Int32.of_int]. *)
let write t buf off =
  Bytes.fill buf off size '\000';
  let wildcards = wildcards_of t in
  Bytes.set_uint16_be buf off (wildcards lsr 16);
  Bytes.set_uint16_be buf (off + 2) (wildcards land 0xFFFF);
  Bytes.set_uint16_be buf (off + 4) (Option.value t.in_port ~default:0);
  (match t.dl_src with Some m -> Mac.write m buf (off + 6) | None -> ());
  (match t.dl_dst with Some m -> Mac.write m buf (off + 12) | None -> ());
  Bytes.set_uint16_be buf (off + 18) (Option.value t.dl_vlan ~default:0);
  Bytes.set_uint8 buf (off + 20) (Option.value t.dl_vlan_pcp ~default:0);
  (* pad at 21 *)
  Bytes.set_uint16_be buf (off + 22) (Option.value t.dl_type ~default:0);
  Bytes.set_uint8 buf (off + 24) (Option.value t.nw_tos ~default:0);
  Bytes.set_uint8 buf (off + 25) (Option.value t.nw_proto ~default:0);
  (* pad at 26-27 *)
  (match t.nw_src with Some (ip, _) -> Ip.write ip buf (off + 28) | None -> ());
  (match t.nw_dst with Some (ip, _) -> Ip.write ip buf (off + 32) | None -> ());
  Bytes.set_uint16_be buf (off + 36) (Option.value t.tp_src ~default:0);
  Bytes.set_uint16_be buf (off + 38) (Option.value t.tp_dst ~default:0)

let read buf off =
  if off + size > Bytes.length buf then Error "Of_match.read: truncated"
  else begin
    let wildcards = Int32.to_int (Bytes.get_int32_be buf off) land 0x3FFFFF in
    let get_u16 o = Bytes.get_uint16_be buf (off + o) in
    let get_u8 o = Bytes.get_uint8 buf (off + o) in
    let plain bit value = if wildcards land bit <> 0 then None else Some value in
    let prefix shift o =
      let wc = (wildcards lsr shift) land 0x3F in
      if wc >= 32 then None else Some (Ip.read buf (off + o), 32 - wc)
    in
    Ok
      {
        in_port = plain wc_in_port (get_u16 4);
        dl_src = plain wc_dl_src (Mac.read buf (off + 6));
        dl_dst = plain wc_dl_dst (Mac.read buf (off + 12));
        dl_vlan = plain wc_dl_vlan (get_u16 18);
        dl_vlan_pcp = plain wc_dl_vlan_pcp (get_u8 20);
        dl_type = plain wc_dl_type (get_u16 22);
        nw_tos = plain wc_nw_tos (get_u8 24);
        nw_proto = plain wc_nw_proto (get_u8 25);
        nw_src = prefix nw_src_shift 28;
        nw_dst = prefix nw_dst_shift 32;
        tp_src = plain wc_tp_src (get_u16 36);
        tp_dst = plain wc_tp_dst (get_u16 38);
      }
  end

(* Monomorphic and inlined field by field: a comparison left generic,
   or a [Hashtbl.hash], would be a C call. *)
let[@inline] int_eq (x : int option) y =
  match (x, y) with
  | None, None -> true
  | Some u, Some v -> u = v
  | None, Some _ | Some _, None -> false

let[@inline] mac_eq x y =
  match (x, y) with
  | None, None -> true
  | Some u, Some v -> Mac.equal u v
  | None, Some _ | Some _, None -> false

let[@inline] prefix_eq x y =
  match (x, y) with
  | None, None -> true
  | Some (ia, (ba : int)), Some (ib, bb) -> Ip.equal ia ib && ba = bb
  | None, Some _ | Some _, None -> false

let equal a b =
  int_eq a.in_port b.in_port
  && mac_eq a.dl_src b.dl_src
  && mac_eq a.dl_dst b.dl_dst
  && int_eq a.dl_vlan b.dl_vlan
  && int_eq a.dl_vlan_pcp b.dl_vlan_pcp
  && int_eq a.dl_type b.dl_type
  && int_eq a.nw_tos b.nw_tos
  && int_eq a.nw_proto b.nw_proto
  && prefix_eq a.nw_src b.nw_src
  && prefix_eq a.nw_dst b.nw_dst
  && int_eq a.tp_src b.tp_src
  && int_eq a.tp_dst b.tp_dst

(* Mixes exactly the fields [equal] compares, a wildcard as 0 and a
   pinned value as 1 + its hash, so equal matches hash equally. *)
let[@inline] mix h v = (h * 31) + v
let[@inline] hash_int h = function None -> mix h 0 | Some v -> mix h (v + 1)
let[@inline] hash_mac h = function None -> mix h 0 | Some m -> mix h (Mac.hash m + 1)

let[@inline] hash_prefix h = function
  | None -> mix h 0
  | Some (ip, bits) -> mix (mix h (Ip.hash ip + 1)) bits

let hash t =
  let h = hash_int 0 t.in_port in
  let h = hash_mac h t.dl_src in
  let h = hash_mac h t.dl_dst in
  let h = hash_int h t.dl_vlan in
  let h = hash_int h t.dl_vlan_pcp in
  let h = hash_int h t.dl_type in
  let h = hash_int h t.nw_tos in
  let h = hash_int h t.nw_proto in
  let h = hash_prefix h t.nw_src in
  let h = hash_prefix h t.nw_dst in
  let h = hash_int h t.tp_src in
  let h = hash_int h t.tp_dst in
  (* Hashtbl.Make buckets on the low bits; finish with a full mix. *)
  let h = (h lxor (h lsr 29)) * 0x1B873593 in
  (h lxor (h lsr 32)) land max_int

let pp fmt t =
  let field name pp_v = function
    | None -> ()
    | Some v -> Format.fprintf fmt "%s=%a " name pp_v v
  in
  let pp_int fmt = Format.fprintf fmt "%d" in
  let pp_hex fmt = Format.fprintf fmt "0x%04x" in
  let pp_prefix fmt (ip, bits) = Format.fprintf fmt "%a/%d" Ip.pp ip bits in
  Format.fprintf fmt "match{";
  field "in_port" pp_int t.in_port;
  field "dl_src" Mac.pp t.dl_src;
  field "dl_dst" Mac.pp t.dl_dst;
  field "dl_vlan" pp_int t.dl_vlan;
  field "dl_vlan_pcp" pp_int t.dl_vlan_pcp;
  field "dl_type" pp_hex t.dl_type;
  field "nw_tos" pp_int t.nw_tos;
  field "nw_proto" pp_int t.nw_proto;
  field "nw_src" pp_prefix t.nw_src;
  field "nw_dst" pp_prefix t.nw_dst;
  field "tp_src" pp_int t.tp_src;
  field "tp_dst" pp_int t.tp_dst;
  Format.fprintf fmt "}"
