(* Behavioural tests of the controller: response pairs, xid echoing,
   release strategies, apps. *)

open Sdn_sim
open Sdn_net
open Sdn_openflow
open Sdn_controller

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Ip.make 10 0 0 1
let ip2 = Ip.make 10 0 0 2

let hosts = [ (ip1, mac1, 1); (ip2, mac2, 2) ]

let quiet_costs = { Costs.default with Costs.service_noise_sigma = 0.0 }

let frame ?(dst_ip = ip2) ?(size = 200) () =
  Packet.encode
    (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1 ~dst_ip
       ~src_port:1000 ~dst_port:9 ~frame_size:size ~payload_fill:(fun _ -> ()))

type harness = {
  engine : Engine.t;
  controller : Controller.t;
  to_switch : (int32 * Of_codec.msg) list ref;
}

let make_harness ?release_strategy ?(app = Apps.forwarding ~hosts ()) () =
  let engine = Engine.create () in
  let controller =
    Controller.create engine ~app ~costs:quiet_costs ~rng:(Rng.of_int 1)
      ?release_strategy ()
  in
  let to_switch = ref [] in
  let link =
    Link.create engine ~name:"down" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun buf ->
        match Of_codec.decode buf with
        | Ok decoded -> to_switch := decoded :: !to_switch
        | Error e -> Alcotest.fail e)
      ()
  in
  Controller.set_switch_link controller link;
  { engine; controller; to_switch }

let deliver h msg ~xid =
  Controller.handle_message h.controller (Of_codec.encode ~xid msg)

let messages h = List.rev !(h.to_switch)

let pkt_in_of ?(buffered = true) f =
  Of_packet_in.make
    ~buffer_id:(if buffered then 7l else Of_wire.no_buffer)
    ~in_port:1 ~reason:Of_packet_in.No_match ~frame:f
    ~miss_send_len:(if buffered then Some 128 else None)

let test_buffered_request_gets_pair () =
  let h = make_harness () in
  deliver h (Of_codec.Packet_in (pkt_in_of (frame ()))) ~xid:99l;
  Engine.run h.engine;
  match messages h with
  | [ (x1, Of_codec.Flow_mod fm); (x2, Of_codec.Packet_out po) ] ->
      Alcotest.(check int32) "flow_mod echoes xid" 99l x1;
      Alcotest.(check int32) "packet_out echoes xid" 99l x2;
      Alcotest.(check int32) "flow_mod does not carry the buffer" Of_wire.no_buffer
        fm.Of_flow_mod.buffer_id;
      Alcotest.(check int32) "packet_out names the buffer" 7l
        po.Of_packet_out.buffer_id;
      Alcotest.(check int) "packet_out carries no data" 0
        (Bytes.length po.Of_packet_out.data);
      (match po.Of_packet_out.actions with
      | [ Of_action.Output { port = 2; _ } ] -> ()
      | _ -> Alcotest.fail "expected output to port 2 (host2)");
      (* The installed rule matches the flow's 5-tuple. *)
      Alcotest.(check bool) "match pins the 5-tuple" true
        (fm.Of_flow_mod.match_.Of_match.tp_src = Some 1000)
  | l -> Alcotest.fail (Printf.sprintf "expected pair, got %d messages" (List.length l))

let test_unbuffered_request_carries_data_back () =
  let h = make_harness () in
  let f = frame ~size:300 () in
  deliver h (Of_codec.Packet_in (pkt_in_of ~buffered:false f)) ~xid:5l;
  Engine.run h.engine;
  match messages h with
  | [ _; (_, Of_codec.Packet_out po) ] ->
      Alcotest.(check int32) "NO_BUFFER" Of_wire.no_buffer po.Of_packet_out.buffer_id;
      Alcotest.(check int) "full frame inside" 300 (Bytes.length po.Of_packet_out.data)
  | _ -> Alcotest.fail "expected flow_mod + packet_out"

let test_flow_mod_release_strategy () =
  let h = make_harness ~release_strategy:`Flow_mod_release () in
  deliver h (Of_codec.Packet_in (pkt_in_of (frame ()))) ~xid:3l;
  Engine.run h.engine;
  match messages h with
  | [ (_, Of_codec.Flow_mod fm) ] ->
      Alcotest.(check int32) "buffer released via flow_mod" 7l
        fm.Of_flow_mod.buffer_id
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected a single flow_mod, got %d messages" (List.length l))

let test_unroutable_floods () =
  let h = make_harness () in
  let f = frame ~dst_ip:(Ip.make 203 0 113 9) () in
  (* Unknown destination IP and a known dst MAC: still routed by MAC.
     Make the MAC unknown too. *)
  let unroutable =
    Packet.encode
      (Packet.udp_frame_of_size ~src_mac:mac1
         ~dst_mac:(Mac.of_octets 0xde 0xad 0 0 0 1)
         ~src_ip:ip1 ~dst_ip:(Ip.make 203 0 113 9) ~src_port:1 ~dst_port:2
         ~frame_size:100 ~payload_fill:(fun _ -> ()))
  in
  ignore f;
  deliver h (Of_codec.Packet_in (pkt_in_of unroutable)) ~xid:1l;
  Engine.run h.engine;
  match messages h with
  | [ (_, Of_codec.Packet_out po) ] -> (
      match po.Of_packet_out.actions with
      | [ Of_action.Output { port; _ } ] ->
          Alcotest.(check int) "flood" Of_wire.Port.flood port
      | _ -> Alcotest.fail "expected a single output action")
  | _ -> Alcotest.fail "expected a flood packet_out and no flow_mod"

let test_echo_reply () =
  let h = make_harness () in
  deliver h (Of_codec.Echo_request (Bytes.of_string "abc")) ~xid:44l;
  Engine.run h.engine;
  match messages h with
  | [ (xid, Of_codec.Echo_reply payload) ] ->
      Alcotest.(check int32) "xid" 44l xid;
      Alcotest.(check bytes) "payload" (Bytes.of_string "abc") payload
  | _ -> Alcotest.fail "expected an echo reply"

let test_start_handshake () =
  let h = make_harness () in
  Controller.start h.controller
    ~enable_flow_buffer:(Of_ext.default_backoff ~timeout:0.05) ();
  Engine.run h.engine;
  let kinds =
    List.map (fun (_, m) -> Of_wire.Msg_type.to_string (Of_codec.msg_type m)) (messages h)
  in
  Alcotest.(check (list string)) "handshake" [ "HELLO"; "FEATURES_REQUEST"; "VENDOR" ] kinds

let test_counters () =
  let h = make_harness () in
  deliver h (Of_codec.Packet_in (pkt_in_of (frame ()))) ~xid:1l;
  deliver h (Of_codec.Packet_in (pkt_in_of (frame ()))) ~xid:2l;
  Engine.run h.engine;
  let c = Controller.counters h.controller in
  Alcotest.(check int) "pkt_ins" 2 c.Controller.pkt_ins_received;
  Alcotest.(check int) "flow_mods" 2 c.Controller.flow_mods_sent;
  Alcotest.(check int) "pkt_outs" 2 c.Controller.pkt_outs_sent

(* After a crash, reconciliation re-installs every view entry the
   switch no longer reports. The view is a hash table; sorting by the
   printed (match, priority) key is what makes the re-install sequence
   deterministic, and no report shows that order. The rules below are
   installed out of key order, two of them in one 5-tuple (one pinned
   further by in_port), one at another priority, one wildcarded. *)
let test_reconcile_reinstall_order () =
  let h = make_harness () in
  Controller.start h.controller ();
  let rule ?in_port ~priority ~src_port () =
    let m =
      Of_match.of_flow_key
        (Flow_key.make ~proto:17 ~src_ip:ip1 ~dst_ip:ip2 ~src_port ~dst_port:9)
    in
    Of_flow_mod.add ~priority ~match_:{ m with Of_match.in_port }
      ~actions:[ Of_action.output 2 ] ()
  in
  let rules =
    [
      rule ~priority:1 ~src_port:30 ();
      rule ~priority:5 ~src_port:7 ();
      rule ~in_port:2 ~priority:1 ~src_port:7 ();
      Of_flow_mod.add ~priority:0 ~match_:Of_match.wildcard_all
        ~actions:[ Of_action.output 1 ] ();
      rule ~priority:1 ~src_port:7 ();
    ]
  in
  Controller.install_proactive h.controller rules;
  Engine.run h.engine;
  Controller.crash h.controller ~mode:Faults.Warm;
  Controller.restart h.controller ~mode:Faults.Warm;
  h.to_switch := [];
  (* Answer the first reconnect probe: the session comes back up and
     the controller audits the switch's flow table. *)
  let rec first_probe () =
    match
      List.find_map
        (function xid, Of_codec.Echo_request _ -> Some xid | _ -> None)
        (messages h)
    with
    | Some xid -> xid
    | None ->
        if Engine.step h.engine then first_probe ()
        else Alcotest.fail "no reconnect probe"
  in
  deliver h (Of_codec.Echo_reply Bytes.empty) ~xid:(first_probe ());
  Engine.run h.engine;
  h.to_switch := [];
  (* The switch reports an empty table: every rule is missing. *)
  deliver h (Of_codec.Stats_reply (Of_stats.Flow_reply [])) ~xid:1l;
  Engine.run h.engine;
  let key (fm : Of_flow_mod.t) =
    Format.asprintf "%a/%d" Of_match.pp fm.Of_flow_mod.match_
      fm.Of_flow_mod.priority
  in
  let reinstalled =
    List.filter_map
      (function _, Of_codec.Flow_mod fm -> Some (key fm) | _ -> None)
      (messages h)
  in
  Alcotest.(check (list string))
    "re-installed in printed-key order"
    (List.sort String.compare (List.map key rules))
    reinstalled

let suite =
  [
    Alcotest.test_case "buffered request gets flow_mod + small packet_out" `Quick
      test_buffered_request_gets_pair;
    Alcotest.test_case "unbuffered request carries the frame back" `Quick
      test_unbuffered_request_carries_data_back;
    Alcotest.test_case "flow_mod release strategy (ablation)" `Quick
      test_flow_mod_release_strategy;
    Alcotest.test_case "unroutable destination floods" `Quick test_unroutable_floods;
    Alcotest.test_case "echo reply" `Quick test_echo_reply;
    Alcotest.test_case "handshake on start" `Quick test_start_handshake;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "reconciliation re-installs in key order" `Quick
      test_reconcile_reinstall_order;
  ]
