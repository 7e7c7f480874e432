open Sdn_net

(* Five immediate ints: the ingress port, then each MAC (48 bits) over
   one 8-bit field and each IPv4 address (32 bits) over its 16-bit
   transport port. The key must cover every packet field
   Of_match.matches can consult: in_port, both MACs, the ToS byte, and
   the 5-tuple. dl_type is implied (a key only exists for IPv4 TCP or
   UDP), and dl_vlan never matches a simulated packet (Packet.t carries
   no VLAN tag), so two packets with equal keys are indistinguishable
   to every rule. *)
type key = {
  mutable in_port : int;
  mutable dst_mac_tos : int;
  mutable src_mac_proto : int;
  mutable src_ip_port : int;
  mutable dst_ip_port : int;
}

let key () =
  {
    in_port = 0;
    dst_mac_tos = 0;
    src_mac_proto = 0;
    src_ip_port = 0;
    dst_ip_port = 0;
  }

let ip_word ip = Int32.to_int ip land 0xFFFF_FFFF

let set k ~in_port ~dl_dst ~dl_src ~tos ~proto ~src_ip ~dst_ip ~src_port
    ~dst_port =
  k.in_port <- in_port;
  k.dst_mac_tos <- (Mac.to_int dl_dst lsl 8) lor tos;
  k.src_mac_proto <- (Mac.to_int dl_src lsl 8) lor proto;
  k.src_ip_port <- (src_ip lsl 16) lor src_port;
  k.dst_ip_port <- (dst_ip lsl 16) lor dst_port

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

let load_ipv4 k ~in_port (eth : Ethernet.t) (ip : Ipv4.t) ~src_port ~dst_port =
  set k ~in_port ~dl_dst:eth.Ethernet.dst ~dl_src:eth.Ethernet.src
    ~tos:ip.Ipv4.tos ~proto:ip.Ipv4.proto
    ~src_ip:(ip_word (Ip.to_int32 ip.Ipv4.src))
    ~dst_ip:(ip_word (Ip.to_int32 ip.Ipv4.dst))
    ~src_port ~dst_port;
  true

let load_packet k ~in_port (pkt : Packet.t) =
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, Packet.Udp (udp, _)) ->
      load_ipv4 k ~in_port pkt.Packet.eth ip ~src_port:udp.Udp.src_port
        ~dst_port:udp.Udp.dst_port
  | Packet.Ipv4 (ip, Packet.Tcp (tcp, _)) ->
      load_ipv4 k ~in_port pkt.Packet.eth ip ~src_port:tcp.Tcp.src_port
        ~dst_port:tcp.Tcp.dst_port
  | Packet.Ipv4 (_, Packet.Raw_l4 _) | Packet.Arp _ | Packet.Raw_l3 _ -> false

(* An open-addressed table with linear probing. Slot [i] holds six
   ints from [i * stride]: the generation that wrote it, then the five
   key words; its value sits at [values.(i)]. A slot is live only if
   its generation is the table's, so a flush bumps the generation and
   touches no slot. With no deletion inside a generation, a probe stops
   at the key or at the first dead slot; the load factor stays at most
   one half. *)
let stride = 6
let initial_slots = 16

(* At most this many entries; on overflow the whole cache is reset. *)
let capacity = 8192

type 'v t = {
  mutable slots : int array;  (* empty until the first [add] *)
  mutable values : 'v option array;
  mutable generation : int;
  mutable length : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create () =
  {
    slots = [||];
    values = [||];
    (* Fresh slots read generation 0: dead. *)
    generation = 1;
    length = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let[@inline] mix h x = (h lxor x) * 0x2545F4914F6CDD1D

let hash ~in_port a b c d =
  let h = mix (mix (mix (mix (mix 0 in_port) a) b) c) d in
  let h = (h lxor (h lsr 29)) * 0x1B873593 in
  h lxor (h lsr 32)

(* The slot holding the key, or the dead slot where it would go. *)
let rec probe (slots : int array) ~generation ~mask ~in_port a b c d i =
  let base = i * stride in
  if slots.(base) <> generation then i
  else if
    slots.(base + 1) = in_port
    && slots.(base + 2) = a
    && slots.(base + 3) = b
    && slots.(base + 4) = c
    && slots.(base + 5) = d
  then i
  else probe slots ~generation ~mask ~in_port a b c d ((i + 1) land mask)

let slot_count t = Array.length t.values

let locate t k =
  let mask = slot_count t - 1 in
  probe t.slots ~generation:t.generation ~mask ~in_port:k.in_port k.dst_mac_tos
    k.src_mac_proto k.src_ip_port k.dst_ip_port
    (hash ~in_port:k.in_port k.dst_mac_tos k.src_mac_proto k.src_ip_port
       k.dst_ip_port
    land mask)

let live t i = t.slots.(i * stride) = t.generation

let find t k =
  let i = if t.length = 0 then -1 else locate t k in
  if i >= 0 && live t i then begin
    t.hits <- t.hits + 1;
    t.values.(i)
  end
  else begin
    t.misses <- t.misses + 1;
    None
  end

let flush t =
  if t.length > 0 then begin
    t.generation <- t.generation + 1;
    t.length <- 0;
    t.flushes <- t.flushes + 1
  end

(* Double the slot count, moving the live slots; the dead ones are
   dropped with the old arrays. *)
let grow t =
  let old_slots = t.slots and old_values = t.values in
  let n = Int.max initial_slots (2 * slot_count t) in
  let mask = n - 1 in
  let slots = Array.make (n * stride) 0 and values = Array.make n None in
  for i = 0 to Array.length old_values - 1 do
    let base = i * stride in
    if old_slots.(base) = t.generation then begin
      let word j = old_slots.(base + j) in
      let j =
        probe slots ~generation:t.generation ~mask ~in_port:(word 1) (word 2)
          (word 3) (word 4) (word 5)
          (hash ~in_port:(word 1) (word 2) (word 3) (word 4) (word 5) land mask)
      in
      Array.blit old_slots base slots (j * stride) stride;
      values.(j) <- old_values.(i)
    end
  done;
  t.slots <- slots;
  t.values <- values

let add t k v =
  (* Whole-cache reset on overflow: crude but deterministic, and the
     steady state (a working set far below capacity) never hits it. *)
  if t.length >= capacity then flush t;
  if 2 * (t.length + 1) > slot_count t then grow t;
  let i = locate t k in
  if not (live t i) then begin
    let base = i * stride in
    t.slots.(base) <- t.generation;
    t.slots.(base + 1) <- k.in_port;
    t.slots.(base + 2) <- k.dst_mac_tos;
    t.slots.(base + 3) <- k.src_mac_proto;
    t.slots.(base + 4) <- k.src_ip_port;
    t.slots.(base + 5) <- k.dst_ip_port;
    t.length <- t.length + 1
  end;
  t.values.(i) <- Some v

let length t = t.length
let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
