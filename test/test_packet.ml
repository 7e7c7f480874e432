(* Tests for frame construction, encoding, decoding and peeking. *)

open Sdn_net

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Ip.make 10 0 0 1
let ip2 = Ip.make 10 0 0 2

let sample_udp ?(payload = Bytes.of_string "hello world") () =
  Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1234
    ~dst_port:9 ~payload ()

let test_udp_roundtrip () =
  let pkt = sample_udp () in
  let encoded = Packet.encode pkt in
  Alcotest.(check int) "size matches" (Packet.size pkt) (Bytes.length encoded);
  match Packet.decode encoded with
  | Ok decoded -> Alcotest.(check bool) "equal" true (Packet.equal pkt decoded)
  | Error msg -> Alcotest.fail msg

let test_udp_frame_exact_size () =
  let pkt =
    Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1 ~dst_ip:ip2
      ~src_port:5 ~dst_port:6 ~frame_size:1000
      ~payload_fill:(fun payload -> Bytes.set payload 0 'x')
  in
  Alcotest.(check int) "exactly 1000 bytes" 1000
    (Bytes.length (Packet.encode pkt))

let test_udp_frame_too_small () =
  Alcotest.(check bool) "rejects sub-header size" true
    (try
       ignore
         (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1
            ~dst_ip:ip2 ~src_port:1 ~dst_port:2 ~frame_size:41
            ~payload_fill:(fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_tcp_roundtrip () =
  let pkt =
    Packet.tcp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1 ~dst_ip:ip2
      ~src_port:4321 ~dst_port:80 ~seq:100l ~ack_seq:55l ~flags:Tcp.flags_syn_ack
      ~payload:(Bytes.of_string "data") ()
  in
  match Packet.decode (Packet.encode pkt) with
  | Ok decoded -> Alcotest.(check bool) "equal" true (Packet.equal pkt decoded)
  | Error msg -> Alcotest.fail msg

let test_arp_roundtrip () =
  let req = Arp.request ~sender_mac:mac1 ~sender_ip:ip1 ~target_ip:ip2 in
  let pkt = Packet.arp ~src_mac:mac1 ~dst_mac:Mac.broadcast req in
  match Packet.decode (Packet.encode pkt) with
  | Ok decoded -> Alcotest.(check bool) "equal" true (Packet.equal pkt decoded)
  | Error msg -> Alcotest.fail msg

let test_arp_reply_construction () =
  let req = Arp.request ~sender_mac:mac1 ~sender_ip:ip1 ~target_ip:ip2 in
  let reply = Arp.reply req ~responder_mac:mac2 in
  Alcotest.(check bool) "reply oper" true (reply.Arp.oper = Arp.Reply);
  Alcotest.(check bool) "sender is responder" true
    (Mac.equal reply.Arp.sender_mac mac2);
  Alcotest.(check bool) "addressed to requester" true
    (Mac.equal reply.Arp.target_mac mac1 && Ip.equal reply.Arp.target_ip ip1);
  Alcotest.(check bool) "announces requested ip" true
    (Ip.equal reply.Arp.sender_ip ip2)

let test_flow_key_extraction () =
  let pkt = sample_udp () in
  match Packet.flow_key pkt with
  | Some key ->
      Alcotest.(check int) "proto" Ipv4.proto_udp key.Flow_key.proto;
      Alcotest.(check int) "src port" 1234 key.Flow_key.src_port;
      Alcotest.(check int) "dst port" 9 key.Flow_key.dst_port;
      Alcotest.(check bool) "ips" true
        (Ip.equal key.Flow_key.src_ip ip1 && Ip.equal key.Flow_key.dst_ip ip2)
  | None -> Alcotest.fail "expected a flow key"

let test_arp_has_no_flow_key () =
  let req = Arp.request ~sender_mac:mac1 ~sender_ip:ip1 ~target_ip:ip2 in
  let pkt = Packet.arp ~src_mac:mac1 ~dst_mac:Mac.broadcast req in
  Alcotest.(check bool) "no key" true (Packet.flow_key pkt = None)

let test_corruption_detected () =
  let encoded = Packet.encode (sample_udp ()) in
  (* Flip a bit in the UDP payload: the UDP checksum must catch it. *)
  let off = Bytes.length encoded - 1 in
  Bytes.set_uint8 encoded off (Bytes.get_uint8 encoded off lxor 1);
  Alcotest.(check bool) "decode fails" true
    (Result.is_error (Packet.decode encoded))

let test_ip_header_corruption_detected () =
  let encoded = Packet.encode (sample_udp ()) in
  (* Corrupt the TTL (inside the IP header checksum). *)
  Bytes.set_uint8 encoded 22 7;
  Alcotest.(check bool) "decode fails" true
    (Result.is_error (Packet.decode encoded))

let test_truncated_rejected () =
  let encoded = Packet.encode (sample_udp ()) in
  let truncated = Bytes.sub encoded 0 30 in
  Alcotest.(check bool) "decode fails" true
    (Result.is_error (Packet.decode truncated))

let test_peek_headers_on_truncated () =
  (* A 1000 B frame truncated to 128 B, as in a buffered PACKET_IN. *)
  let pkt =
    Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1 ~dst_ip:ip2
      ~src_port:777 ~dst_port:9 ~frame_size:1000 ~payload_fill:(fun _ -> ())
  in
  let truncated = Bytes.sub (Packet.encode pkt) 0 128 in
  (* Full decode must fail (payload checksum not verifiable)... *)
  Alcotest.(check bool) "decode fails" true
    (Result.is_error (Packet.decode truncated));
  (* ...but header peeking succeeds. *)
  match Packet.peek_headers truncated with
  | Error msg -> Alcotest.fail msg
  | Ok headers -> (
      Alcotest.(check bool) "eth src" true
        (Mac.equal headers.Packet.h_eth.Ethernet.src mac1);
      (match headers.Packet.h_ipv4 with
      | Some ip -> Alcotest.(check bool) "dst ip" true (Ip.equal ip.Ipv4.dst ip2)
      | None -> Alcotest.fail "expected ipv4 header");
      match headers.Packet.h_l4_ports with
      | Some (src, dst) ->
          Alcotest.(check int) "src port" 777 src;
          Alcotest.(check int) "dst port" 9 dst
      | None -> Alcotest.fail "expected ports")

let test_peek_flow_key_matches_full () =
  let pkt = sample_udp () in
  let encoded = Packet.encode pkt in
  let full = Option.get (Packet.flow_key pkt) in
  let prefix = Bytes.sub encoded 0 48 in
  let peeked = Option.get (Packet.peek_flow_key prefix) in
  Alcotest.(check bool) "same key" true (Flow_key.equal full peeked);
  match Packet.peek_headers prefix with
  | Ok headers ->
      Alcotest.(check bool) "from headers" true
        (Option.equal Flow_key.equal (Some full)
           (Packet.flow_key_of_headers headers))
  | Error msg -> Alcotest.fail msg

let test_every_payload_bit_flip_detected () =
  (* One flipped bit anywhere in the payload of a 1000-B frame changes
     one 16-bit word by a power of two, never a multiple of 0xFFFF, so
     the UDP checksum must reject it: offsets 42-999 reach every lane
     position of the 32-byte loop and the 16-bit tail. *)
  let frame =
    Packet.encode
      (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1
         ~dst_ip:ip2 ~src_port:5 ~dst_port:6 ~frame_size:1000
         ~payload_fill:(fun p ->
           Bytes.iteri (fun i _ -> Bytes.set_uint8 p i ((i * 37) land 0xFF)) p))
  in
  Alcotest.(check bool) "intact frame decodes" true
    (Result.is_ok (Packet.decode frame));
  for off = Packet.min_udp_frame to 999 do
    let corrupted = Bytes.copy frame in
    Bytes.set_uint8 corrupted off
      (Bytes.get_uint8 corrupted off lxor (1 lsl (off land 7)));
    if Result.is_ok (Packet.decode corrupted) then
      Alcotest.failf "bit flip at offset %d not detected" off
  done

let test_length_fields_do_not_wrap () =
  (* 14 + 65,535: the largest frame whose IPv4 total length fits. *)
  let frame frame_size =
    Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1 ~dst_ip:ip2
      ~src_port:5 ~dst_port:6 ~frame_size ~payload_fill:(fun _ -> ())
  in
  let largest = frame 65_549 in
  let encoded = Packet.encode largest in
  Alcotest.(check int) "encoded size" 65_549 (Bytes.length encoded);
  (match Packet.decode encoded with
  | Ok decoded ->
      Alcotest.(check bool) "roundtrip" true (Packet.equal largest decoded)
  | Error msg -> Alcotest.fail msg);
  let raises name f =
    Alcotest.(check bool) name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  raises "65,550-byte frame" (fun () -> ignore (Packet.encode (frame 65_550)));
  let buf = Bytes.make 70_000 '\000' in
  raises "udp length" (fun () ->
      Udp.write { Udp.src_port = 1; dst_port = 2 } ~src_ip:ip1 ~dst_ip:ip2
        ~payload:(Bytes.create (0x10000 - Udp.size)) buf 0);
  raises "tcp length" (fun () ->
      Tcp.write
        {
          Tcp.src_port = 1;
          dst_port = 2;
          seq = 0l;
          ack_seq = 0l;
          flags = Tcp.no_flags;
          window = 0;
        }
        ~src_ip:ip1 ~dst_ip:ip2
        ~payload:(Bytes.create (0x10000 - Tcp.size)) buf 0)

let test_udp_zero_checksum_accepted () =
  (* RFC 768 allows checksum 0 = not computed. *)
  let encoded = Packet.encode (sample_udp ()) in
  Bytes.set_uint16_be encoded (14 + 20 + 6) 0;
  Alcotest.(check bool) "accepted" true (Result.is_ok (Packet.decode encoded))

let arbitrary_udp =
  let gen =
    QCheck.Gen.(
      map2
        (fun (a, b, c, d) payload_len ->
          let payload = Bytes.make payload_len 'p' in
          Packet.udp
            ~src_mac:(Mac.of_octets 2 0 0 0 0 (a land 0xff))
            ~dst_mac:mac2
            ~src_ip:(Ip.make 10 (b land 0xff) (c land 0xff) 1)
            ~dst_ip:ip2
            ~src_port:(1 + (d land 0xffff) mod 65535)
            ~dst_port:9 ~payload ())
        (quad nat nat nat nat) (int_range 0 1200))
  in
  QCheck.make gen

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp encode/decode roundtrip" ~count:200 arbitrary_udp
    (fun pkt ->
      match Packet.decode (Packet.encode pkt) with
      | Ok decoded -> Packet.equal pkt decoded
      | Error _ -> false)

let prop_size_equals_encoding =
  QCheck.Test.make ~name:"size equals encoded length" ~count:200 arbitrary_udp
    (fun pkt -> Packet.size pkt = Bytes.length (Packet.encode pkt))

(* ---- One validity check: [validate] and [build] against the decoder
   they replaced ----

   [Reference] is the decoder as it was before the check was split
   from the field reads: each header reader checks and parses in one
   pass. Over mutilated frames of every shape, [validate] must accept
   exactly what the reference decodes, [decode] (that is, [validate]
   then [build]) must return the packet the reference returns, and
   [peek_flow_key] the 5-tuple the reference's header peek gives. *)

module Reference = struct
  let ( let* ) = Result.bind
  let get16 = Bytes.get_uint16_be

  let eth buf =
    if Bytes.length buf < Ethernet.size then Error "eth"
    else
      Ok
        {
          Ethernet.dst = Mac.read buf 0;
          src = Mac.read buf 6;
          ethertype = get16 buf 12;
        }

  let ipv4 buf off =
    if off + 20 > Bytes.length buf then Error "ip truncated"
    else begin
      let vihl = Bytes.get_uint8 buf off in
      if vihl lsr 4 <> 4 || vihl land 0xF <> 5 then Error "ip version"
      else if not (Checksum.verify buf off 20) then Error "ip checksum"
      else begin
        let total = get16 buf (off + 2) in
        if total < 20 then Error "ip total length"
        else
          Ok
            ( {
                Ipv4.tos = Bytes.get_uint8 buf (off + 1);
                ident = get16 buf (off + 4);
                dont_fragment = get16 buf (off + 6) land 0x4000 <> 0;
                ttl = Bytes.get_uint8 buf (off + 8);
                proto = Bytes.get_uint8 buf (off + 9);
                src = Ip.read buf (off + 12);
                dst = Ip.read buf (off + 16);
              },
              total - 20 )
      end
    end

  let l4_sum (ip : Ipv4.t) buf off ~len =
    Checksum.add
      (Udp.pseudo_header_sum ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst
         ~proto:ip.Ipv4.proto ~l4_len:len)
      (Checksum.sum buf off len)

  let l4 (ip : Ipv4.t) buf off ~len =
    let payload hdr = Bytes.sub buf (off + hdr) (len - hdr) in
    if ip.Ipv4.proto = 17 then
      if len < 8 || off + len > Bytes.length buf then Error "udp truncated"
      else if get16 buf (off + 4) <> len then Error "udp length"
      else if get16 buf (off + 6) <> 0 && l4_sum ip buf off ~len <> 0xFFFF then
        Error "udp checksum"
      else
        Ok
          (Packet.Udp
             ( { Udp.src_port = get16 buf off; dst_port = get16 buf (off + 2) },
               payload 8 ))
    else if ip.Ipv4.proto = 6 then
      if len < 20 || off + len > Bytes.length buf then Error "tcp truncated"
      else if Bytes.get_uint8 buf (off + 12) lsr 4 <> 5 then Error "tcp options"
      else if l4_sum ip buf off ~len <> 0xFFFF then Error "tcp checksum"
      else begin
        let f = Bytes.get_uint8 buf (off + 13) in
        let bit b = f land b <> 0 in
        Ok
          (Packet.Tcp
             ( {
                 Tcp.src_port = get16 buf off;
                 dst_port = get16 buf (off + 2);
                 seq = Bytes.get_int32_be buf (off + 4);
                 ack_seq = Bytes.get_int32_be buf (off + 8);
                 flags =
                   {
                     Tcp.fin = bit 0x01;
                     syn = bit 0x02;
                     rst = bit 0x04;
                     psh = bit 0x08;
                     ack = bit 0x10;
                     urg = bit 0x20;
                   };
                 window = get16 buf (off + 14);
               },
               payload 20 ))
      end
    else Ok (Packet.Raw_l4 (ip.Ipv4.proto, payload 0))

  let arp buf off =
    if off + 28 > Bytes.length buf then Error "arp truncated"
    else if get16 buf off <> 1 || get16 buf (off + 2) <> 0x0800 then
      Error "arp types"
    else if Bytes.get_uint8 buf (off + 4) <> 6 || Bytes.get_uint8 buf (off + 5) <> 4
    then Error "arp lengths"
    else
      match get16 buf (off + 6) with
      | (1 | 2) as op ->
          Ok
            {
              Arp.oper = (if op = 1 then Arp.Request else Arp.Reply);
              sender_mac = Mac.read buf (off + 8);
              sender_ip = Ip.read buf (off + 14);
              target_mac = Mac.read buf (off + 18);
              target_ip = Ip.read buf (off + 24);
            }
      | _ -> Error "arp operation"

  let decode buf =
    let* eth = eth buf in
    if eth.Ethernet.ethertype = 0x0800 then
      let* ip, len = ipv4 buf 14 in
      if 34 + len > Bytes.length buf then Error "ip payload truncated"
      else
        let* l4 = l4 ip buf 34 ~len in
        Ok { Packet.eth; l3 = Packet.Ipv4 (ip, l4) }
    else if eth.Ethernet.ethertype = 0x0806 then
      let* a = arp buf 14 in
      Ok { Packet.eth; l3 = Packet.Arp a }
    else
      Ok { Packet.eth; l3 = Packet.Raw_l3 (Bytes.sub buf 14 (Bytes.length buf - 14)) }

  let peek_flow_key buf =
    match eth buf with
    | Ok eth when eth.Ethernet.ethertype = 0x0800 -> (
        match ipv4 buf 14 with
        | Ok (ip, _)
          when (ip.Ipv4.proto = 17 || ip.Ipv4.proto = 6) && Bytes.length buf >= 38 ->
            Some
              (Flow_key.make ~proto:ip.Ipv4.proto ~src_ip:ip.Ipv4.src
                 ~dst_ip:ip.Ipv4.dst ~src_port:(get16 buf 34)
                 ~dst_port:(get16 buf 36))
        | Ok _ | Error _ -> None)
    | Ok _ | Error _ -> None
end

(* Small field domains, so independent draws often agree; some values
   differ from another only in a field's top bit. *)
let gen_mac =
  QCheck.Gen.oneofl
    [ mac1; mac2; Mac.of_octets 0x02 0xff 0 0 0 1; Mac.of_octets 0x82 0 0 0 0 1 ]

let gen_ip =
  QCheck.Gen.oneofl [ ip1; ip2; Ip.make 10 0 1 1; Ip.make 138 0 0 1 ]

let gen_l4_port = QCheck.Gen.oneofl [ 9; 0x8009; 1000 ]
let gen_tos = QCheck.Gen.oneofl [ 0; 0x08; 0x28; 0xFF ]

(* Packets of every shape a [Packet.t] holds. *)
let gen_packet =
  let open QCheck.Gen in
  let mac = gen_mac and ip = gen_ip and port = gen_l4_port in
  let payload =
    map
      (fun (n, seed) -> Bytes.init n (fun i -> Char.chr ((seed + (i * 37)) land 0xFF)))
      (pair (int_range 0 48) nat)
  in
  let eth ethertype = map2 (fun dst src -> { Ethernet.dst; src; ethertype }) mac mac in
  let ipv4 proto l4 =
    map3
      (fun (tos, ttl, ident) (src, dst) l4 ->
        Packet.Ipv4
          ( { Ipv4.tos; ident; dont_fragment = ident land 1 = 0; ttl; proto; src; dst },
            l4 ))
      (triple gen_tos (oneofl [ 1; 64 ]) (int_range 0 0xFFFF))
      (pair ip ip) l4
  in
  let udp =
    ipv4 17
      (map3 (fun src_port dst_port p -> Packet.Udp ({ Udp.src_port; dst_port }, p)) port port payload)
  in
  let tcp =
    ipv4 6
      (map3
         (fun (src_port, dst_port) (seq, flags) p ->
           Packet.Tcp
             ( { Tcp.src_port; dst_port; seq = Int32.of_int seq; ack_seq = 7l; flags; window = 512 },
               p ))
         (pair port port)
         (pair nat (oneofl [ Tcp.no_flags; Tcp.flags_syn; Tcp.flags_psh_ack ]))
         payload)
  in
  let raw_l4 =
    oneofl [ 1; 47 ] >>= fun proto ->
    ipv4 proto (map (fun p -> Packet.Raw_l4 (proto, p)) payload)
  in
  let arp =
    map3
      (fun sender_mac (sender_ip, target_ip) reply ->
        let req = Arp.request ~sender_mac ~sender_ip ~target_ip in
        Packet.Arp (if reply then Arp.reply req ~responder_mac:mac2 else req))
      mac (pair ip ip) bool
  in
  frequency
    [
      (3, map2 (fun eth l3 -> { Packet.eth; l3 }) (eth 0x0800) udp);
      (2, map2 (fun eth l3 -> { Packet.eth; l3 }) (eth 0x0800) tcp);
      (1, map2 (fun eth l3 -> { Packet.eth; l3 }) (eth 0x0800) raw_l4);
      (1, map2 (fun eth l3 -> { Packet.eth; l3 }) (eth 0x0806) arp);
      (1, map2 (fun eth p -> { Packet.eth; l3 = Packet.Raw_l3 p }) (eth 0x88cc) payload);
    ]

(* Every mutilation of one encoded frame: each of its first 58 bytes
   (the headers and some payload) flipped by [mask]; each IPv4 and TCP
   header byte flipped with that header's checksum fixed, so that the
   field itself is what is judged; the frame cut at every length;
   Ethernet padding; the IPv4 total length and the UDP length field
   moved by one, with the UDP checksum kept or zeroed (unused); UDP
   checksums of 0 and 0xFFFF; and ARP operations 0 to 3. *)
let mutilations frame ~mask =
  let n = Bytes.length frame in
  let edit f =
    let b = Bytes.copy frame in
    f b;
    b
  in
  let is_ipv4 = n >= 34 && Bytes.get_uint16_be frame 12 = 0x0800 in
  let is_udp = is_ipv4 && Bytes.get_uint8 frame 23 = 17 && n >= 42 in
  let is_tcp = is_ipv4 && Bytes.get_uint8 frame 23 = 6 && n >= 54 in
  let is_arp = n >= 42 && Bytes.get_uint16_be frame 12 = 0x0806 in
  let set16 off v b = Bytes.set_uint16_be b off (v land 0xFFFF) in
  let fix_ip_checksum b =
    Bytes.set_uint16_be b 24 0;
    Bytes.set_uint16_be b 24 (Checksum.over b 14 20)
  in
  (* The TCP checksum over the segment the IPv4 header announces. *)
  let fix_tcp_checksum b =
    let len = Bytes.get_uint16_be frame 16 - 20 in
    Bytes.set_uint16_be b 50 0;
    let pseudo =
      Udp.pseudo_header_sum ~src_ip:(Ip.read b 26) ~dst_ip:(Ip.read b 30)
        ~proto:6 ~l4_len:len
    in
    Bytes.set_uint16_be b 50
      (Checksum.finish (Checksum.add pseudo (Checksum.sum b 34 len)))
  in
  let delta d off b = set16 off (Bytes.get_uint16_be b off + d) b in
  let flip i b = Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor mask) in
  let udp_csum = if is_udp then [ ignore; set16 40 0 ] else [ ignore ] in
  List.concat
    [
      [ frame; Bytes.cat frame (Bytes.make 6 '\000') ];
      List.init (Int.min n 58) (fun i -> edit (flip i));
      (if is_ipv4 then
         List.init 20 (fun i ->
             edit (fun b ->
                 flip (14 + i) b;
                 fix_ip_checksum b))
       else []);
      (if is_tcp then
         List.init 20 (fun i ->
             edit (fun b ->
                 flip (34 + i) b;
                 fix_tcp_checksum b))
       else []);
      (if is_arp then List.init 4 (fun op -> edit (set16 20 op)) else []);
      List.init n (fun len -> Bytes.sub frame 0 len);
      (if is_ipv4 then
         List.concat_map
           (fun csum ->
             List.map
               (fun d ->
                 edit (fun b ->
                     csum b;
                     delta d 16 b;
                     fix_ip_checksum b))
               [ -1; 1 ])
           udp_csum
       else []);
      (if is_udp then
         List.concat_map
           (fun csum ->
             List.map
               (fun d ->
                 edit (fun b ->
                     csum b;
                     delta d 38 b))
               [ -1; 1 ])
           udp_csum
         @ [ edit (set16 40 0); edit (set16 40 0xFFFF) ]
       else []);
    ]

let prop_validate_is_decode =
  QCheck.Test.make ~name:"validate accepts exactly what decode accepts"
    ~count:150
    (QCheck.make QCheck.Gen.(pair gen_packet (int_range 1 255)))
    (fun (pkt, mask) ->
      List.for_all
        (fun frame ->
          let reference = Reference.decode frame in
          let decoded = Packet.decode frame in
          Result.is_ok (Packet.validate frame) = Result.is_ok decoded
          && (match (decoded, reference) with
             | Ok a, Ok b -> Packet.equal a b
             | Error _, Error _ -> true
             | Ok _, Error _ | Error _, Ok _ -> false)
          && Option.equal Flow_key.equal (Packet.peek_flow_key frame)
               (Reference.peek_flow_key frame))
        (mutilations (Packet.encode pkt) ~mask))

let suite =
  [
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "exact frame size" `Quick test_udp_frame_exact_size;
    Alcotest.test_case "frame size validation" `Quick test_udp_frame_too_small;
    Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "arp roundtrip" `Quick test_arp_roundtrip;
    Alcotest.test_case "arp reply construction" `Quick test_arp_reply_construction;
    Alcotest.test_case "flow key extraction" `Quick test_flow_key_extraction;
    Alcotest.test_case "arp has no flow key" `Quick test_arp_has_no_flow_key;
    Alcotest.test_case "payload corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "ip header corruption detected" `Quick
      test_ip_header_corruption_detected;
    Alcotest.test_case "truncated frame rejected" `Quick test_truncated_rejected;
    Alcotest.test_case "peek headers on truncated frame" `Quick
      test_peek_headers_on_truncated;
    Alcotest.test_case "peeked flow key matches full" `Quick
      test_peek_flow_key_matches_full;
    Alcotest.test_case "udp zero checksum accepted" `Quick
      test_udp_zero_checksum_accepted;
    Alcotest.test_case "every payload bit flip detected" `Quick
      test_every_payload_bit_flip_detected;
    Alcotest.test_case "length fields do not wrap" `Quick
      test_length_fields_do_not_wrap;
    QCheck_alcotest.to_alcotest prop_udp_roundtrip;
    QCheck_alcotest.to_alcotest prop_size_equals_encoding;
    QCheck_alcotest.to_alcotest prop_validate_is_decode;
  ]
