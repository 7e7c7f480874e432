open Sdn_net
open Sdn_openflow

(* dl_type is implied (a key only exists for IPv4 TCP or UDP), and
   dl_vlan never matches a simulated packet (Packet.t carries no VLAN
   tag), so two packets with equal keys are indistinguishable to every
   rule. *)
type key = int array

let words = 5
let tuple_words = 3
let key () = Array.make words 0
let ip_word ip = Int32.to_int ip land 0xFFFF_FFFF

let set (k : key) ~in_port ~dl_dst ~dl_src ~tos ~proto ~src_ip ~dst_ip
    ~src_port ~dst_port =
  k.(0) <- in_port;
  k.(1) <- (Mac.to_int dl_dst lsl 8) lor tos;
  k.(2) <- (Mac.to_int dl_src lsl 8) lor proto;
  k.(3) <- (src_ip lsl 16) lor src_port;
  k.(4) <- (dst_ip lsl 16) lor dst_port

(* Where [Packet.build] reads each field of a checked frame: Ethernet,
   then IPv4 without options, then the transport ports. *)
let ip_off = Ethernet.size
let l4_off = ip_off + Ipv4.size

let load_frame k ~in_port frame =
  Ethernet.ethertype frame 0 = Ethernet.ethertype_ipv4
  &&
  let proto = Ipv4.proto frame ip_off in
  (proto = Ipv4.proto_udp || proto = Ipv4.proto_tcp)
  && begin
       set k ~in_port ~dl_dst:(Mac.read frame 0) ~dl_src:(Mac.read frame 6)
         ~tos:(Bytes.get_uint8 frame (ip_off + 1))
         ~proto
         ~src_ip:(ip_word (Bytes.get_int32_be frame (ip_off + 12)))
         ~dst_ip:(ip_word (Bytes.get_int32_be frame (ip_off + 16)))
         ~src_port:(Bytes.get_uint16_be frame l4_off)
         ~dst_port:(Bytes.get_uint16_be frame (l4_off + 2));
       true
     end

(* A packet built through the API may hold fields wider than the
   wire's, which would alias another key: it gets none. *)
let load_ipv4 k ~in_port (eth : Ethernet.t) (ip : Ipv4.t) ~src_port ~dst_port =
  let tos = ip.Ipv4.tos and proto = ip.Ipv4.proto in
  tos land 0xFF = tos
  && proto land 0xFF = proto
  && src_port land 0xFFFF = src_port
  && dst_port land 0xFFFF = dst_port
  && begin
       set k ~in_port ~dl_dst:eth.Ethernet.dst ~dl_src:eth.Ethernet.src ~tos
         ~proto
         ~src_ip:(ip_word (Ip.to_int32 ip.Ipv4.src))
         ~dst_ip:(ip_word (Ip.to_int32 ip.Ipv4.dst))
         ~src_port ~dst_port;
       true
     end

let load_packet k ~in_port (pkt : Packet.t) =
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, Packet.Udp (udp, _)) ->
      load_ipv4 k ~in_port pkt.Packet.eth ip ~src_port:udp.Udp.src_port
        ~dst_port:udp.Udp.dst_port
  | Packet.Ipv4 (ip, Packet.Tcp (tcp, _)) ->
      load_ipv4 k ~in_port pkt.Packet.eth ip ~src_port:tcp.Tcp.src_port
        ~dst_port:tcp.Tcp.dst_port
  | Packet.Ipv4 (_, Packet.Raw_l4 _) | Packet.Arp _ | Packet.Raw_l3 _ -> false

let matches (k : key) m =
  Of_match.matches_ipv4 m ~in_port:k.(0) ~dl_src:(k.(2) lsr 8)
    ~dl_dst:(k.(1) lsr 8) ~tos:(k.(1) land 0xFF) ~proto:(k.(2) land 0xFF)
    ~src_ip:(k.(3) lsr 16) ~dst_ip:(k.(4) lsr 16)
    ~src_port:(k.(3) land 0xFFFF) ~dst_port:(k.(4) land 0xFFFF)

(* Packed only in range, so no two 5-tuples share a key. *)
let load_tuple (w : int array) ~proto ~src_ip ~dst_ip ~src_port ~dst_port =
  proto land 0xFF = proto
  && src_port land 0xFFFF = src_port
  && dst_port land 0xFFFF = dst_port
  && begin
       w.(0) <- proto;
       w.(1) <- (ip_word (Ip.to_int32 src_ip) lsl 16) lor src_port;
       w.(2) <- (ip_word (Ip.to_int32 dst_ip) lsl 16) lor dst_port;
       true
     end

let load_flow_key w (f : Flow_key.t) =
  load_tuple w ~proto:f.Flow_key.proto ~src_ip:f.Flow_key.src_ip
    ~dst_ip:f.Flow_key.dst_ip ~src_port:f.Flow_key.src_port
    ~dst_port:f.Flow_key.dst_port

let tuple_of_key (k : key) (w : int array) =
  w.(0) <- k.(2) land 0xFF;
  w.(1) <- k.(3);
  w.(2) <- k.(4)
