(* Roundtrip tests for every OpenFlow message type, plus the message
   sizes that the paper's analysis depends on. *)

open Sdn_net
open Sdn_openflow

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Ip.make 10 0 0 1
let ip2 = Ip.make 10 0 0 2

let frame_of_size n =
  Packet.encode
    (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1
       ~dst_ip:ip2 ~src_port:1000 ~dst_port:9 ~frame_size:n
       ~payload_fill:(fun _ -> ()))

let roundtrip msg =
  let xid = 0x1234_5678l in
  let encoded = Of_codec.encode ~xid msg in
  Alcotest.(check int) "declared size" (Of_codec.size msg) (Bytes.length encoded);
  match Of_codec.decode encoded with
  | Ok (xid', msg') ->
      Alcotest.(check int32) "xid preserved" xid xid';
      Alcotest.(check bool)
        (Format.asprintf "roundtrip of %a" Of_codec.pp msg)
        true (Of_codec.equal msg msg')
  | Error e -> Alcotest.fail e

let sample_match = Of_match.of_flow_key
    (Flow_key.make ~proto:17 ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1000 ~dst_port:9)

let sample_flow_mod =
  Of_flow_mod.add ~cookie:42L ~idle_timeout:5 ~priority:7 ~match_:sample_match
    ~actions:[ Of_action.output 2 ] ()

let test_hello () = roundtrip Of_codec.Hello
let test_echo () = roundtrip (Of_codec.Echo_request (Bytes.of_string "ping"));
  roundtrip (Of_codec.Echo_reply (Bytes.of_string "pong"))

let test_error () =
  roundtrip
    (Of_codec.Error_msg
       (Of_error.make ~error_type:Of_error.Bad_request
          ~code:Of_error.Bad_request_code.buffer_unknown
          ~data:(Bytes.of_string "offending bytes") ()))

let test_features () =
  roundtrip Of_codec.Features_request;
  roundtrip
    (Of_codec.Features_reply
       (Of_features.make ~datapath_id:99L ~n_buffers:256 ~n_tables:1
          ~ports:
            [
              { Of_features.port_no = 1; hw_addr = mac1; name = "eth1" };
              { Of_features.port_no = 2; hw_addr = mac2; name = "eth2" };
            ]))

let test_packet_in_full () =
  let frame = frame_of_size 1000 in
  roundtrip
    (Of_codec.Packet_in
       (Of_packet_in.make ~buffer_id:Of_wire.no_buffer ~in_port:1
          ~reason:Of_packet_in.No_match ~frame ~miss_send_len:None))

let test_packet_in_truncated () =
  let frame = frame_of_size 1000 in
  let pkt_in =
    Of_packet_in.make ~buffer_id:77l ~in_port:1 ~reason:Of_packet_in.No_match
      ~frame ~miss_send_len:(Some 128)
  in
  Alcotest.(check int) "data truncated" 128 (Bytes.length pkt_in.Of_packet_in.data);
  Alcotest.(check int) "total_len is the full frame" 1000
    pkt_in.Of_packet_in.total_len;
  roundtrip (Of_codec.Packet_in pkt_in)

let test_packet_out_release () =
  roundtrip (Of_codec.Packet_out (Of_packet_out.release ~buffer_id:3l ~out_port:2))

let test_packet_out_full () =
  let frame = frame_of_size 200 in
  roundtrip (Of_codec.Packet_out (Of_packet_out.full ~frame ~in_port:1 ~out_port:2))

let test_flow_mod () = roundtrip (Of_codec.Flow_mod sample_flow_mod)

let test_flow_mod_delete () =
  roundtrip
    (Of_codec.Flow_mod
       {
         sample_flow_mod with
         Of_flow_mod.command = Of_flow_mod.Delete;
         out_port = Of_wire.Port.none;
         actions = [];
       })

let test_barrier () =
  roundtrip Of_codec.Barrier_request;
  roundtrip Of_codec.Barrier_reply

let test_stats_desc () =
  roundtrip (Of_codec.Stats_request Of_stats.Desc_request);
  roundtrip
    (Of_codec.Stats_reply
       (Of_stats.Desc_reply
          {
            Of_stats.mfr_desc = "mfr";
            hw_desc = "hw";
            sw_desc = "sw";
            serial_num = "1";
            dp_desc = "dp";
          }))

let test_stats_flow () =
  roundtrip
    (Of_codec.Stats_request
       (Of_stats.Flow_request
          { match_ = sample_match; table_id = 0; out_port = Of_wire.Port.none }));
  let entry =
    {
      Of_stats.table_id = 0;
      match_ = sample_match;
      duration_sec = 12l;
      duration_nsec = 100l;
      priority = 7;
      idle_timeout = 5;
      hard_timeout = 0;
      cookie = 42L;
      packet_count = 1000L;
      byte_count = 1_000_000L;
      actions = [ Of_action.output 2 ];
    }
  in
  roundtrip (Of_codec.Stats_reply (Of_stats.Flow_reply [ entry; entry ]))

(* The wire length field is 16 bits: an oversized Flow_reply must be
   rejected loudly by the framer (no silent wraparound), and
   [truncate_flow_entries] must hand back exactly the prefix that
   still frames. *)
let test_stats_flow_oversized () =
  let entry =
    {
      Of_stats.table_id = 0;
      match_ = sample_match;
      duration_sec = 1l;
      duration_nsec = 0l;
      priority = 1;
      idle_timeout = 0;
      hard_timeout = 0;
      cookie = 0L;
      packet_count = 0L;
      byte_count = 0L;
      actions = [ Of_action.output 2 ];
    }
  in
  let big = List.init 1000 (fun _ -> entry) in
  Alcotest.check_raises "oversized reply rejected"
    (Invalid_argument
       "Of_wire.write_header: length exceeds the 16-bit wire field")
    (fun () ->
      ignore (Of_codec.encode ~xid:1l (Of_codec.Stats_reply (Of_stats.Flow_reply big))));
  let kept = Of_stats.truncate_flow_entries big in
  Alcotest.(check bool) "truncated" true (List.length kept < 1000);
  Alcotest.(check bool) "non-empty" true (kept <> []);
  roundtrip (Of_codec.Stats_reply (Of_stats.Flow_reply kept));
  (* One more entry would overflow again. *)
  Alcotest.check_raises "prefix is maximal"
    (Invalid_argument
       "Of_wire.write_header: length exceeds the 16-bit wire field")
    (fun () ->
      ignore
        (Of_codec.encode ~xid:1l
           (Of_codec.Stats_reply (Of_stats.Flow_reply (entry :: kept)))));
  (* A list that already fits is returned as-is. *)
  let small = List.init 5 (fun _ -> entry) in
  Alcotest.(check bool) "identity when it fits" true
    (Of_stats.truncate_flow_entries small == small)

let test_stats_aggregate () =
  roundtrip
    (Of_codec.Stats_request
       (Of_stats.Aggregate_request
          { match_ = Of_match.wildcard_all; table_id = 0xff; out_port = Of_wire.Port.none }));
  roundtrip
    (Of_codec.Stats_reply
       (Of_stats.Aggregate_reply
          { packet_count = 5L; byte_count = 5000L; flow_count = 2l }))

let test_stats_port () =
  roundtrip (Of_codec.Stats_request (Of_stats.Port_request { port_no = Of_wire.Port.none }));
  roundtrip
    (Of_codec.Stats_reply
       (Of_stats.Port_reply
          [
            {
              Of_stats.port_no = 1;
              rx_packets = 10L;
              tx_packets = 20L;
              rx_bytes = 100L;
              tx_bytes = 200L;
              rx_dropped = 0L;
              tx_dropped = 1L;
              rx_errors = 0L;
              tx_errors = 0L;
            };
          ]))

let test_vendor_messages () =
  roundtrip
    (Of_codec.Vendor
       (Of_ext.Flow_buffer_enable
          {
            Of_ext.timeout = 0.05;
            multiplier = 2.0;
            cap = 0.4;
            max_resends = 5;
          }));
  roundtrip
    (Of_codec.Vendor
       (Of_ext.Flow_buffer_enable (Of_ext.default_backoff ~timeout:0.05)));
  roundtrip (Of_codec.Vendor Of_ext.Flow_buffer_disable);
  roundtrip (Of_codec.Vendor Of_ext.Flow_buffer_stats_request);
  roundtrip
    (Of_codec.Vendor
       (Of_ext.Flow_buffer_stats_reply
          {
            Of_ext.units_in_use = 5;
            units_total = 256;
            flows_buffered = 5;
            packets_buffered = 40;
            resends = 1;
          }))

(* The message-size arithmetic behind the paper's Fig. 2. *)
let test_paper_message_sizes () =
  let frame = frame_of_size 1000 in
  let no_buffer_pkt_in =
    Of_codec.size
      (Of_codec.Packet_in
         (Of_packet_in.make ~buffer_id:Of_wire.no_buffer ~in_port:1
            ~reason:Of_packet_in.No_match ~frame ~miss_send_len:None))
  in
  let buffered_pkt_in =
    Of_codec.size
      (Of_codec.Packet_in
         (Of_packet_in.make ~buffer_id:1l ~in_port:1
            ~reason:Of_packet_in.No_match ~frame ~miss_send_len:(Some 128)))
  in
  let no_buffer_pkt_out =
    Of_codec.size (Of_codec.Packet_out (Of_packet_out.full ~frame ~in_port:1 ~out_port:2))
  in
  let buffered_pkt_out =
    Of_codec.size (Of_codec.Packet_out (Of_packet_out.release ~buffer_id:1l ~out_port:2))
  in
  Alcotest.(check int) "no-buffer PACKET_IN = 18 + frame" 1018 no_buffer_pkt_in;
  Alcotest.(check int) "buffered PACKET_IN = 18 + 128" 146 buffered_pkt_in;
  Alcotest.(check int) "no-buffer PACKET_OUT = 24 + frame" 1024 no_buffer_pkt_out;
  Alcotest.(check int) "buffered PACKET_OUT = 24" 24 buffered_pkt_out;
  Alcotest.(check int) "flow_mod = 72 + one action" 80
    (Of_codec.size (Of_codec.Flow_mod sample_flow_mod))

let test_decode_garbage () =
  Alcotest.(check bool) "short buffer" true
    (Result.is_error (Of_codec.decode (Bytes.of_string "abc")));
  let bad_version = Of_codec.encode ~xid:1l Of_codec.Hello in
  Bytes.set_uint8 bad_version 0 0x04;
  Alcotest.(check bool) "wrong version" true
    (Result.is_error (Of_codec.decode bad_version));
  let bad_type = Of_codec.encode ~xid:1l Of_codec.Hello in
  Bytes.set_uint8 bad_type 1 0xEE;
  Alcotest.(check bool) "unknown type" true
    (Result.is_error (Of_codec.decode bad_type));
  let bad_length = Of_codec.encode ~xid:1l Of_codec.Hello in
  Bytes.set_uint16_be bad_length 2 4 (* below header size *);
  Alcotest.(check bool) "length field below header size" true
    (Result.is_error (Of_codec.decode bad_length))

let test_peek_type () =
  let encoded = Of_codec.encode ~xid:9l (Of_codec.Flow_mod sample_flow_mod) in
  Alcotest.(check int) "flow_mod"
    (Of_wire.Msg_type.to_int Of_wire.Msg_type.Flow_mod)
    (Of_wire.type_byte encoded);
  Bytes.set_uint8 encoded 0 4 (* a foreign version *);
  Alcotest.(check int) "rejected header" (-1) (Of_wire.type_byte encoded)

let prop_actions_roundtrip =
  let arbitrary_action =
    QCheck.Gen.(
      oneof
        [
          map (fun p -> Of_action.output (p land 0xffff)) nat;
          map (fun v -> Of_action.Set_vlan_vid (v land 0xfff)) nat;
          return Of_action.Strip_vlan;
          map (fun o -> Of_action.Set_dl_src (Mac.of_octets 2 0 0 0 0 (o land 0xff))) nat;
          map (fun o -> Of_action.Set_nw_dst (Ip.make 10 0 0 (o land 0xff))) nat;
          map (fun v -> Of_action.Set_nw_tos (v land 0xff)) nat;
          map (fun v -> Of_action.Set_tp_src (v land 0xffff)) nat;
          map
            (fun (p, q) ->
              Of_action.Enqueue { port = p land 0xffff; queue_id = Int32.of_int (q land 0xff) })
            (pair nat nat);
        ])
  in
  QCheck.Test.make ~name:"action list wire roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) arbitrary_action))
    (fun actions ->
      let len = Of_action.list_size actions in
      let buf = Bytes.make len '\000' in
      ignore (Of_action.write_list actions buf 0);
      match Of_action.read_list buf 0 ~len with
      | Ok actions' ->
          List.length actions = List.length actions'
          && List.for_all2 Of_action.equal actions actions'
      | Error _ -> false)

let prop_packet_in_roundtrip =
  QCheck.Test.make ~name:"packet_in roundtrip across sizes" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_range 64 1400) bool))
    (fun (size, buffered) ->
      let frame = frame_of_size size in
      let msg =
        Of_codec.Packet_in
          (Of_packet_in.make
             ~buffer_id:(if buffered then 5l else Of_wire.no_buffer)
             ~in_port:1 ~reason:Of_packet_in.No_match ~frame
             ~miss_send_len:(if buffered then Some 128 else None))
      in
      match Of_codec.decode (Of_codec.encode ~xid:1l msg) with
      | Ok (_, msg') -> Of_codec.equal msg msg'
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "hello" `Quick test_hello;
    Alcotest.test_case "echo request/reply" `Quick test_echo;
    Alcotest.test_case "error" `Quick test_error;
    Alcotest.test_case "features" `Quick test_features;
    Alcotest.test_case "packet_in (full frame)" `Quick test_packet_in_full;
    Alcotest.test_case "packet_in (buffered, truncated)" `Quick
      test_packet_in_truncated;
    Alcotest.test_case "packet_out (release)" `Quick test_packet_out_release;
    Alcotest.test_case "packet_out (full frame)" `Quick test_packet_out_full;
    Alcotest.test_case "flow_mod add" `Quick test_flow_mod;
    Alcotest.test_case "flow_mod delete" `Quick test_flow_mod_delete;
    Alcotest.test_case "barrier" `Quick test_barrier;
    Alcotest.test_case "stats desc" `Quick test_stats_desc;
    Alcotest.test_case "stats flow" `Quick test_stats_flow;
    Alcotest.test_case "stats flow oversized reply" `Quick
      test_stats_flow_oversized;
    Alcotest.test_case "stats aggregate" `Quick test_stats_aggregate;
    Alcotest.test_case "stats port" `Quick test_stats_port;
    Alcotest.test_case "vendor (flow-buffer extension)" `Quick
      test_vendor_messages;
    Alcotest.test_case "paper message sizes" `Quick test_paper_message_sizes;
    Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
    Alcotest.test_case "peek_type" `Quick test_peek_type;
    QCheck_alcotest.to_alcotest prop_actions_roundtrip;
    QCheck_alcotest.to_alcotest prop_packet_in_roundtrip;
  ]
