(* Tests for capture classification, delay pairing, and report
   formatting. *)

open Sdn_sim
open Sdn_net
open Sdn_openflow
open Sdn_measure
open Sdn_traffic

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Ip.make 10 0 0 1
let ip2 = Ip.make 10 0 0 2

let tagged_frame ~flow_id ~seq ~flow_packets =
  Packet.encode
    (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2
       ~src_ip:(Ip.make 10 1 0 flow_id) ~dst_ip:ip2 ~src_port:(1000 + flow_id)
       ~dst_port:9 ~frame_size:200
       ~payload_fill:(fun payload ->
         Tag.write { Tag.flow_id; seq; flow_packets } payload))

let pkt_in_bytes ~xid ~buffer_id frame =
  Of_codec.encode ~xid
    (Of_codec.Packet_in
       (Of_packet_in.make ~buffer_id ~in_port:1 ~reason:Of_packet_in.No_match
          ~frame ~miss_send_len:(Some 128)))

let flow_mod_bytes ~xid =
  Of_codec.encode ~xid
    (Of_codec.Flow_mod
       (Of_flow_mod.add ~match_:Of_match.wildcard_all
          ~actions:[ Of_action.output 2 ] ()))

let pkt_out_bytes ~xid =
  Of_codec.encode ~xid
    (Of_codec.Packet_out (Of_packet_out.release ~buffer_id:1l ~out_port:2))

let test_capture_counts_by_type_and_direction () =
  let cap = Capture.create ~encap_overhead:66 () in
  let pkt_in = pkt_in_bytes ~xid:1l ~buffer_id:1l (tagged_frame ~flow_id:0 ~seq:0 ~flow_packets:1) in
  Capture.observe cap Capture.To_controller ~time:0.0 pkt_in;
  Capture.observe cap Capture.To_switch ~time:0.001 (flow_mod_bytes ~xid:1l);
  Capture.observe cap Capture.To_switch ~time:0.002 (pkt_out_bytes ~xid:1l);
  Alcotest.(check int) "up messages" 1 (Capture.messages cap Capture.To_controller);
  Alcotest.(check int) "down messages" 2 (Capture.messages cap Capture.To_switch);
  Alcotest.(check int) "up payload" (Bytes.length pkt_in)
    (Capture.payload_bytes cap Capture.To_controller);
  Alcotest.(check int) "up wire includes encap" (Bytes.length pkt_in + 66)
    (Capture.bytes cap Capture.To_controller);
  Alcotest.(check int) "pkt_in classified" 1
    (Capture.messages_of_type cap Capture.To_controller Of_wire.Msg_type.Packet_in);
  Alcotest.(check int) "flow_mod classified" 1
    (Capture.messages_of_type cap Capture.To_switch Of_wire.Msg_type.Flow_mod);
  Alcotest.(check (option (float 1e-12))) "first time" (Some 0.001)
    (Capture.first_time cap Capture.To_switch);
  Alcotest.(check (option (float 1e-12))) "last time" (Some 0.002)
    (Capture.last_time cap Capture.To_switch)

let test_capture_load () =
  let cap = Capture.create ~encap_overhead:0 () in
  (* 2 x 62500 bytes in 1 s = 1 Mbps, each frame inside the 16-bit
     wire length limit. *)
  let chunk = Of_codec.encode ~xid:1l (Of_codec.Echo_request (Bytes.make 62492 'x')) in
  Capture.observe cap Capture.To_controller ~time:0.0 chunk;
  Capture.observe cap Capture.To_controller ~time:0.5 chunk;
  Alcotest.(check (float 1e-9)) "1 Mbps" 1.0
    (Capture.load_mbps cap Capture.To_controller ~window:1.0)

let test_delay_setup_and_forwarding () =
  let d = Delay.create () in
  let f0 = tagged_frame ~flow_id:0 ~seq:0 ~flow_packets:2 in
  let f1 = tagged_frame ~flow_id:0 ~seq:1 ~flow_packets:2 in
  Delay.on_switch_ingress d ~time:1.0 f0;
  Delay.on_switch_ingress d ~time:1.1 f1;
  Delay.on_switch_egress d ~time:1.25 f0;
  Alcotest.(check int) "not complete yet" 0 (Delay.flows_completed d);
  Delay.on_switch_egress d ~time:1.4 f1;
  Alcotest.(check int) "complete" 1 (Delay.flows_completed d);
  let setup = Delay.flow_setup_delays d in
  Alcotest.(check int) "one setup sample" 1 (Stats.count setup);
  Alcotest.(check (float 1e-9)) "setup = first out - first in" 0.25
    (Stats.mean setup);
  let fwd = Delay.flow_forwarding_delays d in
  Alcotest.(check (float 1e-9)) "forwarding = last out - first in" 0.4
    (Stats.mean fwd)

let test_single_packet_flow_has_no_forwarding_delay () =
  let d = Delay.create () in
  let f = tagged_frame ~flow_id:3 ~seq:0 ~flow_packets:1 in
  Delay.on_switch_ingress d ~time:0.0 f;
  Delay.on_switch_egress d ~time:0.01 f;
  Alcotest.(check int) "setup recorded" 1 (Stats.count (Delay.flow_setup_delays d));
  Alcotest.(check int) "no forwarding sample" 0
    (Stats.count (Delay.flow_forwarding_delays d))

let test_controller_delay_pairing () =
  let d = Delay.create () in
  let frame = tagged_frame ~flow_id:0 ~seq:0 ~flow_packets:1 in
  Delay.on_switch_ingress d ~time:0.0 frame;
  Delay.on_to_controller d ~time:0.001 (pkt_in_bytes ~xid:10l ~buffer_id:1l frame);
  (* The first response with the same xid closes the pair... *)
  Delay.on_to_switch d ~time:0.0025 (flow_mod_bytes ~xid:10l);
  (* ...and the second does not double count. *)
  Delay.on_to_switch d ~time:0.003 (pkt_out_bytes ~xid:10l);
  let cd = Delay.controller_delays d in
  Alcotest.(check int) "one pair" 1 (Stats.count cd);
  Alcotest.(check (float 1e-9)) "delay" 0.0015 (Stats.mean cd);
  (* Switch delay = setup - controller delay, recorded on completion. *)
  Delay.on_switch_egress d ~time:0.004 frame;
  let sd = Delay.switch_delays d in
  Alcotest.(check (float 1e-9)) "switch delay" (0.004 -. 0.0015) (Stats.mean sd)

let test_unmatched_response_counted () =
  let d = Delay.create () in
  Delay.on_to_switch d ~time:0.0 (flow_mod_bytes ~xid:555l);
  Alcotest.(check int) "unmatched" 1 (Delay.unmatched_responses d)

(* The controller tap reads PACKET_INs in place, so each malformed one
   must pair exactly as a full decode has it: not at all, or without a
   flow where the length field stops short of the tag. The reference
   below pairs by [Of_codec.decode]. *)
let test_to_controller_tap_matches_decode () =
  let frame id = tagged_frame ~flow_id:id ~seq:0 ~flow_packets:1 in
  let pkt_in xid id = pkt_in_bytes ~xid ~buffer_id:1l (frame id) in
  let set buf ~at v =
    Bytes.set_uint8 buf at v;
    buf
  in
  let sent =
    [
      pkt_in 1l 0;
      (* reason byte 2 *)
      set (pkt_in 2l 1) ~at:16 2;
      (* a 9-byte body whose reason byte would read 0 *)
      (let b = Bytes.sub (pkt_in 3l 2) 0 17 in
       Bytes.set_uint16_be b 2 17;
       b);
      (* the data ends one byte inside the tag (bytes 60-75), although
         the whole tag is still in the buffer *)
      (let b = pkt_in 4l 3 in
       Bytes.set_uint16_be b 2 75;
       b);
      (* a foreign type: the same bytes labelled ECHO_REQUEST *)
      set (pkt_in 5l 4) ~at:1
        (Of_wire.Msg_type.to_int Of_wire.Msg_type.Echo_request);
      pkt_in 6l 5;
    ]
  in
  let sent_at i = 0.001 *. float_of_int (i + 1) in
  let answered_at xid = 0.01 *. Int32.to_float xid in
  let d = Delay.create () in
  List.iter (fun id -> Delay.on_switch_ingress d ~time:0.0 (frame id)) [ 0; 1; 2; 3; 4; 5 ];
  List.iteri (fun i buf -> Delay.on_to_controller d ~time:(sent_at i) buf) sent;
  (* Every xid is answered, and xid 1 twice. *)
  let answers = [ 1l; 2l; 3l; 4l; 5l; 6l; 1l ] in
  List.iter
    (fun xid -> Delay.on_to_switch d ~time:(answered_at xid) (flow_mod_bytes ~xid))
    answers;
  List.iter (fun id -> Delay.on_switch_egress d ~time:0.1 (frame id)) [ 0; 1; 2; 3; 4; 5 ];
  (* The reference: xid -> (sent at, flow id if the decoded data shows
     a tag). *)
  let pending = Hashtbl.create 8 in
  List.iteri
    (fun i buf ->
      match Of_codec.decode buf with
      | Ok (xid, Of_codec.Packet_in p) ->
          Hashtbl.replace pending xid
            ( sent_at i,
              Option.map (fun tag -> tag.Tag.flow_id) (Tag.read_frame p.Of_packet_in.data) )
      | Ok _ | Error _ -> ())
    sent;
  let controller = ref [] and flow_delays = ref [] and unmatched = ref 0 in
  List.iter
    (fun xid ->
      match Hashtbl.find_opt pending xid with
      | None -> incr unmatched
      | Some (at, flow) ->
          Hashtbl.remove pending xid;
          let delay = answered_at xid -. at in
          controller := delay :: !controller;
          Option.iter (fun id -> flow_delays := (id, delay) :: !flow_delays) flow)
    answers;
  (* Switch delay = setup (0.1 for every flow) minus controller delay,
     recorded at egress in flow-id order. *)
  let switch =
    List.filter_map
      (fun id -> Option.map (fun cd -> 0.1 -. cd) (List.assoc_opt id !flow_delays))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let samples stats = Array.to_list (Stats.samples stats) in
  Alcotest.(check (list (float 1e-12)))
    "paired as decode pairs" (List.rev !controller)
    (samples (Delay.controller_delays d));
  Alcotest.(check int) "unmatched as decode" !unmatched (Delay.unmatched_responses d);
  Alcotest.(check (list (float 1e-12)))
    "tag seen as decode sees it" switch
    (samples (Delay.switch_delays d));
  (* Not vacuous: three requests pair, one of them without its flow. *)
  Alcotest.(check int) "pairs" 3 (List.length !controller);
  Alcotest.(check int) "flows" 2 (List.length switch)

let test_sampler_gauge () =
  let engine = Engine.create () in
  let v = ref 0.0 in
  let series = Sampler.gauge engine ~dt:0.1 ~until:0.55 (fun () -> !v) in
  ignore (Engine.schedule_at engine 0.25 (fun () -> v := 5.0));
  ignore (Engine.schedule_at engine 1.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.(check int) "five samples" 5 (Timeseries.length series);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Timeseries.max_value series)

let test_sampler_cpu_utilization () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 () in
  let series = Sampler.cpu_utilization engine ~dt:0.1 ~until:0.5 [ cpu ] in
  (* Busy 0.05 s in the first 0.1 s window -> 50%. *)
  Cpu.submit cpu ~work_s:0.05 (fun () -> ());
  ignore (Engine.schedule_at engine 0.6 (fun () -> ()));
  Engine.run engine;
  let values = Timeseries.values series in
  Alcotest.(check (float 1e-6)) "first window 50%" 50.0 values.(0);
  Alcotest.(check (float 1e-6)) "second window idle" 0.0 values.(1)

let test_report_table_and_csv () =
  let header = [ "a"; "bbb" ] and rows = [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  let table = Report.table ~header ~rows in
  Alcotest.(check bool) "contains separator" true
    (String.split_on_char '\n' table |> List.length = 4);
  let csv = Report.csv ~header ~rows:[ [ "x,y"; "z" ] ] in
  Alcotest.(check string) "escapes commas" "a,bbb\n\"x,y\",z\n" csv;
  Alcotest.(check string) "ms formatting" "1.500" (Report.fmt_ms 1.5e-3)

(* Regression: the bar length used to truncate to zero for any bucket
   dwarfed by the peak, rendering non-empty buckets as empty bars. *)
let test_histogram_minimum_bar () =
  let stats = Stats.create ~keep_samples:true () in
  for _ = 1 to 1000 do
    Stats.add stats 1.0
  done;
  Stats.add stats 10.0;
  let rendered = Report.histogram ~bins:2 ~width:40 stats in
  let bars =
    String.split_on_char '\n' rendered
    |> List.filter (fun line -> String.contains line '#')
  in
  Alcotest.(check int) "both non-empty buckets show a bar" 2 (List.length bars)

(* Regression: empty and degenerate series must render, not raise —
   saturated runs produce delay series with zero samples. *)
let test_histogram_empty_and_degenerate () =
  let empty = Stats.create ~keep_samples:true () in
  Alcotest.(check string)
    "empty series renders a placeholder" "(no samples)"
    (Report.histogram empty);
  let single = Stats.create ~keep_samples:true () in
  Stats.add single 2.5;
  let rendered = Report.histogram ~bins:8 single in
  Alcotest.(check bool) "single sample collapses to one bucket" true
    (String.split_on_char '\n' rendered
    |> List.filter (fun line -> String.contains line '#')
    |> List.length = 1)

let test_histogram_bucket_edges () =
  let stats = Stats.create ~keep_samples:true () in
  List.iter (Stats.add stats) [ 0.0; 1.0; 2.0; 3.0; 4.0 ];
  let rendered =
    Report.histogram ~bins:4 ~width:8
      ~fmt:(fun v -> string_of_int (int_of_float v))
      stats
  in
  (* The last bucket is closed: a sample equal to the maximum lands in
     it rather than overflowing, so [3, 4] holds both 3.0 and 4.0. *)
  let last_row =
    String.split_on_char '\n' rendered
    |> List.filter (fun line ->
           String.length line >= 6 && String.sub line 0 6 = "[3, 4]")
  in
  match last_row with
  | [ row ] ->
      let trimmed = String.trim row in
      Alcotest.(check bool) "closed last bucket counts the max sample" true
        (String.contains trimmed '#'
        && trimmed.[String.length trimmed - 1] = '2')
  | _ -> Alcotest.fail ("expected one [3, 4] row in:\n" ^ rendered)

(* Regression: the timeline must render injected crash/restart/
   reconciliation events distinctly from session-state transitions —
   marked, merged chronologically, with a legend — while keeping the
   event-free rendering byte-identical to the historical form. *)
let test_timeline_events () =
  let transitions = [ (0.0, "up"); (0.15, "down"); (0.2, "up") ] in
  Alcotest.(check string)
    "no events: historical rendering"
    "up@t0.000s -> down@t0.150s -> up@t0.200s"
    (Report.timeline transitions);
  Alcotest.(check string)
    "explicit empty events change nothing"
    (Report.timeline transitions)
    (Report.timeline ~events:[] transitions);
  let events =
    [
      (0.15, "switch crash (cold)");
      (0.2, "switch restart");
      (0.21, "reconciliation done (sw-0)");
    ]
  in
  Alcotest.(check string)
    "events marked, merged after the state they caused, legend appended"
    ("up@t0.000s -> down@t0.150s -> ![switch crash (cold)]@t0.150s -> "
   ^ "up@t0.200s -> ^[switch restart]@t0.200s -> "
   ^ "~[reconciliation done (sw-0)]@t0.210s"
   ^ " [legend: ![crash] ^[restart] ~[reconciliation]]")
    (Report.timeline ~events transitions);
  Alcotest.(check string)
    "events alone still render"
    ("![controller crash (warm)]@t0.100s"
   ^ " [legend: ![crash] ^[restart] ~[reconciliation]]")
    (Report.timeline ~events:[ (0.1, "controller crash (warm)") ] []);
  Alcotest.(check string) "both empty" "(none)" (Report.timeline [])

let suite =
  [
    Alcotest.test_case "capture counts by type and direction" `Quick
      test_capture_counts_by_type_and_direction;
    Alcotest.test_case "capture load" `Quick test_capture_load;
    Alcotest.test_case "setup and forwarding delays" `Quick
      test_delay_setup_and_forwarding;
    Alcotest.test_case "single-packet flow: no forwarding sample" `Quick
      test_single_packet_flow_has_no_forwarding_delay;
    Alcotest.test_case "controller delay pairing by xid" `Quick
      test_controller_delay_pairing;
    Alcotest.test_case "unmatched responses counted" `Quick
      test_unmatched_response_counted;
    Alcotest.test_case "controller tap pairs malformed PACKET_INs as decode"
      `Quick test_to_controller_tap_matches_decode;
    Alcotest.test_case "gauge sampler" `Quick test_sampler_gauge;
    Alcotest.test_case "cpu utilization sampler" `Quick test_sampler_cpu_utilization;
    Alcotest.test_case "report table and csv" `Quick test_report_table_and_csv;
    Alcotest.test_case "histogram renders dominated buckets" `Quick
      test_histogram_minimum_bar;
    Alcotest.test_case "histogram bucket edges" `Quick
      test_histogram_bucket_edges;
    Alcotest.test_case "histogram empty and degenerate series" `Quick
      test_histogram_empty_and_degenerate;
    Alcotest.test_case "timeline renders crash events distinctly" `Quick
      test_timeline_events;
  ]
