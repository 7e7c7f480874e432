type l4 =
  | Udp of Udp.t * Bytes.t
  | Tcp of Tcp.t * Bytes.t
  | Raw_l4 of int * Bytes.t

type l3 = Ipv4 of Ipv4.t * l4 | Arp of Arp.t | Raw_l3 of Bytes.t

type t = { eth : Ethernet.t; l3 : l3 }

let min_udp_frame = Ethernet.size + Ipv4.size + Udp.size

let l4_size = function
  | Udp (_, payload) -> Udp.size + Bytes.length payload
  | Tcp (_, payload) -> Tcp.size + Bytes.length payload
  | Raw_l4 (_, payload) -> Bytes.length payload

let size t =
  Ethernet.size
  +
  match t.l3 with
  | Ipv4 (_, l4) -> Ipv4.size + l4_size l4
  | Arp _ -> Arp.size
  | Raw_l3 payload -> Bytes.length payload

let encode t =
  let buf = Bytes.make (size t) '\000' in
  Ethernet.write t.eth buf 0;
  (match t.l3 with
  | Ipv4 (ip, l4) ->
      let ip_off = Ethernet.size in
      let l4_off = ip_off + Ipv4.size in
      Ipv4.write ip ~payload_len:(l4_size l4) buf ip_off;
      (match l4 with
      | Udp (udp, payload) ->
          Bytes.blit payload 0 buf (l4_off + Udp.size) (Bytes.length payload);
          Udp.write udp ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst ~payload buf
            l4_off
      | Tcp (tcp, payload) ->
          Bytes.blit payload 0 buf (l4_off + Tcp.size) (Bytes.length payload);
          Tcp.write tcp ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst ~payload buf
            l4_off
      | Raw_l4 (_, payload) ->
          Bytes.blit payload 0 buf l4_off (Bytes.length payload))
  | Arp arp -> Arp.write arp buf Ethernet.size
  | Raw_l3 payload -> Bytes.blit payload 0 buf Ethernet.size (Bytes.length payload));
  buf

(* IPv4 carries no options here, so every header sits at a fixed
   offset. *)
let ip_off = Ethernet.size
let l4_off = ip_off + Ipv4.size

let validate buf =
  match Ethernet.check buf 0 with
  | Error _ as e -> e
  | Ok () ->
      let ethertype = Ethernet.ethertype buf 0 in
      if ethertype = Ethernet.ethertype_ipv4 then begin
        match Ipv4.check buf ip_off with
        | Error _ as e -> e
        | Ok () ->
            let len = Ipv4.payload_len buf ip_off in
            if l4_off + len > Bytes.length buf then
              Error "Packet.validate: truncated IPv4 payload"
            else begin
              let proto = Ipv4.proto buf ip_off in
              if proto = Ipv4.proto_udp then Udp.check buf l4_off ~len
              else if proto = Ipv4.proto_tcp then Tcp.check buf l4_off ~len
              else Ok ()
            end
      end
      else if ethertype = Ethernet.ethertype_arp then Arp.check buf ip_off
      else Ok ()

let build buf =
  let eth = Ethernet.read buf 0 in
  let l3 =
    if eth.Ethernet.ethertype = Ethernet.ethertype_ipv4 then begin
      let ip = Ipv4.read buf ip_off in
      let len = Ipv4.payload_len buf ip_off in
      let l4 =
        if ip.Ipv4.proto = Ipv4.proto_udp then
          let data = l4_off + Udp.size in
          Udp (Udp.read buf l4_off, Bytes.sub buf data (len - Udp.size))
        else if ip.Ipv4.proto = Ipv4.proto_tcp then
          let data = l4_off + Tcp.size in
          Tcp (Tcp.read buf l4_off, Bytes.sub buf data (len - Tcp.size))
        else Raw_l4 (ip.Ipv4.proto, Bytes.sub buf l4_off len)
      in
      Ipv4 (ip, l4)
    end
    else if eth.Ethernet.ethertype = Ethernet.ethertype_arp then
      Arp (Arp.read buf ip_off)
    else Raw_l3 (Bytes.sub buf ip_off (Bytes.length buf - ip_off))
  in
  { eth; l3 }

let decode buf =
  match validate buf with Ok () -> Ok (build buf) | Error _ as e -> e

let flow_key t =
  match t.l3 with
  | Ipv4 (ip, Udp (udp, _)) ->
      Some
        (Flow_key.make ~proto:Ipv4.proto_udp ~src_ip:ip.Ipv4.src
           ~dst_ip:ip.Ipv4.dst ~src_port:udp.Udp.src_port
           ~dst_port:udp.Udp.dst_port)
  | Ipv4 (ip, Tcp (tcp, _)) ->
      Some
        (Flow_key.make ~proto:Ipv4.proto_tcp ~src_ip:ip.Ipv4.src
           ~dst_ip:ip.Ipv4.dst ~src_port:tcp.Tcp.src_port
           ~dst_port:tcp.Tcp.dst_port)
  | Ipv4 (_, Raw_l4 _) | Arp _ | Raw_l3 _ -> None

(* The headers of a built IPv4 frame: identification 0, TTL 64,
   don't-fragment set. *)
let ipv4 ~src_mac ~dst_mac ~src_ip ~dst_ip ~proto l4 =
  {
    eth =
      { Ethernet.dst = dst_mac; src = src_mac; ethertype = Ethernet.ethertype_ipv4 };
    l3 =
      Ipv4
        ( {
            Ipv4.tos = 0;
            ident = 0;
            dont_fragment = true;
            ttl = 64;
            proto;
            src = src_ip;
            dst = dst_ip;
          },
          l4 );
  }

let udp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~payload () =
  ipv4 ~src_mac ~dst_mac ~src_ip ~dst_ip ~proto:Ipv4.proto_udp
    (Udp ({ Udp.src_port; dst_port }, payload))

let udp_frame_of_size ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port
    ~frame_size ~payload_fill =
  if frame_size < min_udp_frame then
    invalid_arg
      (Printf.sprintf "Packet.udp_frame_of_size: %d < minimum %d" frame_size
         min_udp_frame);
  let payload = Bytes.make (frame_size - min_udp_frame) '\000' in
  payload_fill payload;
  udp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~payload ()

let tcp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ?(seq = 0l)
    ?(ack_seq = 0l) ?(flags = Tcp.no_flags) ?(window = 65535) ~payload () =
  ipv4 ~src_mac ~dst_mac ~src_ip ~dst_ip ~proto:Ipv4.proto_tcp
    (Tcp ({ Tcp.src_port; dst_port; seq; ack_seq; flags; window }, payload))

let arp ~src_mac ~dst_mac payload =
  {
    eth =
      { Ethernet.dst = dst_mac; src = src_mac; ethertype = Ethernet.ethertype_arp };
    l3 = Arp payload;
  }

type headers = {
  h_eth : Ethernet.t;
  h_ipv4 : Ipv4.t option;
  h_l4_ports : (int * int) option;
}

(* Whether a frame prefix carries an IPv4 header, checked: [Ok false]
   for another EtherType. *)
let peek_ipv4 buf =
  match Ethernet.check buf 0 with
  | Error _ as e -> e
  | Ok () ->
      if Ethernet.ethertype buf 0 <> Ethernet.ethertype_ipv4 then Ok false
      else begin
        match Ipv4.check buf ip_off with
        | Error _ as e -> e
        | Ok () -> Ok true
      end

(* Ports of a checked IPv4 header's UDP or TCP segment, if they fit. *)
let has_ports buf =
  let proto = Ipv4.proto buf ip_off in
  (proto = Ipv4.proto_udp || proto = Ipv4.proto_tcp)
  && l4_off + 4 <= Bytes.length buf

let peek_headers buf =
  match peek_ipv4 buf with
  | Error _ as e -> e
  | Ok ipv4 ->
      let h_eth = Ethernet.read buf 0 in
      if not ipv4 then Ok { h_eth; h_ipv4 = None; h_l4_ports = None }
      else
        Ok
          {
            h_eth;
            h_ipv4 = Some (Ipv4.read buf ip_off);
            h_l4_ports =
              (if has_ports buf then
                 Some
                   ( Bytes.get_uint16_be buf l4_off,
                     Bytes.get_uint16_be buf (l4_off + 2) )
               else None);
          }

let flow_key_of_headers = function
  | { h_ipv4 = Some ip; h_l4_ports = Some (src_port, dst_port); _ } ->
      Some
        (Flow_key.make ~proto:ip.Ipv4.proto ~src_ip:ip.Ipv4.src
           ~dst_ip:ip.Ipv4.dst ~src_port ~dst_port)
  | { h_ipv4 = None; _ } | { h_l4_ports = None; _ } -> None

let peek_flow_key buf =
  match peek_ipv4 buf with
  | Ok true when has_ports buf ->
      let ip = Ipv4.read buf ip_off in
      Some
        (Flow_key.make ~proto:ip.Ipv4.proto ~src_ip:ip.Ipv4.src
           ~dst_ip:ip.Ipv4.dst
           ~src_port:(Bytes.get_uint16_be buf l4_off)
           ~dst_port:(Bytes.get_uint16_be buf (l4_off + 2)))
  | Ok _ | Error _ -> None

let equal_l4 a b =
  match (a, b) with
  | Udp (ha, pa), Udp (hb, pb) -> Udp.equal ha hb && Bytes.equal pa pb
  | Tcp (ha, pa), Tcp (hb, pb) -> Tcp.equal ha hb && Bytes.equal pa pb
  | Raw_l4 (na, pa), Raw_l4 (nb, pb) -> na = nb && Bytes.equal pa pb
  | (Udp _ | Tcp _ | Raw_l4 _), _ -> false

let equal_l3 a b =
  match (a, b) with
  | Ipv4 (ha, la), Ipv4 (hb, lb) -> Ipv4.equal ha hb && equal_l4 la lb
  | Arp a, Arp b -> Arp.equal a b
  | Raw_l3 a, Raw_l3 b -> Bytes.equal a b
  | (Ipv4 _ | Arp _ | Raw_l3 _), _ -> false

let equal a b = Ethernet.equal a.eth b.eth && equal_l3 a.l3 b.l3

