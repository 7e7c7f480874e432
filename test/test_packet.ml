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
  ]
