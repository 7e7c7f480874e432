(* Behavioural tests of the switch: miss paths for the three
   mechanisms, rule installation, buffered release, handshake replies,
   errors, fallback on exhaustion. *)

open Sdn_sim
open Sdn_net
open Sdn_openflow
open Sdn_switch

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Ip.make 10 0 0 1
let ip2 = Ip.make 10 0 0 2

let frame ?(src_port = 1000) ?(size = 200) () =
  Packet.encode
    (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1
       ~dst_ip:ip2 ~src_port ~dst_port:9 ~frame_size:size
       ~payload_fill:(fun _ -> ()))

(* A quiet cost model so tests reason about behaviour, not timing. *)
let fast_costs =
  {
    Costs.default with
    Costs.service_noise_sigma = 0.0;
    flow_mod_apply_latency = 1e-6;
  }

type harness = {
  engine : Engine.t;
  switch : Switch.t;
  egress1 : Bytes.t list ref;  (** frames sent out port 1 *)
  egress2 : Bytes.t list ref;  (** frames sent out port 2 *)
  to_controller : (int32 * Of_codec.msg) list ref;  (** decoded, in order *)
}

let make_harness ?(config = Switch.default_config) () =
  let engine = Engine.create () in
  let switch =
    Switch.create engine ~config ~costs:fast_costs ~rng:(Rng.of_int 1) ()
  in
  let egress1 = ref [] and egress2 = ref [] and to_controller = ref [] in
  let data_link store =
    Link.create engine ~name:"egress" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun frame -> store := frame :: !store)
      ()
  in
  let ctrl_link =
    Link.create engine ~name:"ctrl" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun buf ->
        match Of_codec.decode buf with
        | Ok decoded -> to_controller := decoded :: !to_controller
        | Error e -> Alcotest.fail e)
      ()
  in
  Switch.set_port switch ~port:1 (data_link egress1);
  Switch.set_port switch ~port:2 (data_link egress2);
  Switch.set_controller_link switch ctrl_link;
  { engine; switch; egress1; egress2; to_controller }

let messages h = List.rev !(h.to_controller)

let pkt_ins h =
  List.filter_map
    (function _, Of_codec.Packet_in p -> Some p | _ -> None)
    (messages h)

let send_of_xid h xid msg =
  Switch.handle_of_message h.switch (Of_codec.encode ~xid msg)

let send_of h msg = send_of_xid h 7l msg

let test_miss_no_buffer_sends_full_packet () =
  let config = { Switch.default_config with Switch.mechanism = Switch.No_buffer } in
  let h = make_harness ~config () in
  let f = frame ~size:300 () in
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run h.engine;
  match pkt_ins h with
  | [ p ] ->
      Alcotest.(check int32) "NO_BUFFER id" Of_wire.no_buffer p.Of_packet_in.buffer_id;
      Alcotest.(check int) "full frame carried" 300
        (Bytes.length p.Of_packet_in.data);
      Alcotest.(check int) "in_port" 1 p.Of_packet_in.in_port
  | l -> Alcotest.fail (Printf.sprintf "expected 1 packet_in, got %d" (List.length l))

let test_miss_packet_granularity_truncates () =
  let h = make_harness () in
  Switch.handle_frame h.switch ~in_port:1 (frame ~size:500 ());
  (* Stop before the pool's 1 s ageing would drop the unit. *)
  Engine.run ~until:0.01 h.engine;
  match pkt_ins h with
  | [ p ] ->
      Alcotest.(check bool) "valid buffer id" true
        (not (Int32.equal p.Of_packet_in.buffer_id Of_wire.no_buffer));
      Alcotest.(check int) "miss_send_len bytes" 128 (Bytes.length p.Of_packet_in.data);
      Alcotest.(check int) "total_len is full frame" 500 p.Of_packet_in.total_len;
      Alcotest.(check int) "one unit held" 1
        (Switch.buffer_stats h.switch).Of_ext.units_in_use
  | _ -> Alcotest.fail "expected one packet_in"

let test_packet_out_releases_buffered () =
  let h = make_harness () in
  let f = frame () in
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run ~until:0.01 h.engine;
  let p = List.hd (pkt_ins h) in
  send_of h
    (Of_codec.Packet_out
       (Of_packet_out.release ~buffer_id:p.Of_packet_in.buffer_id ~out_port:2));
  Engine.run ~until:0.02 h.engine;
  (match !(h.egress2) with
  | [ out ] -> Alcotest.(check bytes) "original frame egressed" f out
  | _ -> Alcotest.fail "expected the buffered frame on port 2");
  Alcotest.(check int) "forwarded counter" 1
    (Switch.counters h.switch).Switch.frames_forwarded

let test_flow_mod_installs_rule () =
  let h = make_harness () in
  let f = frame ~src_port:42 () in
  let key = Option.get (Packet.peek_flow_key f) in
  send_of h
    (Of_codec.Flow_mod
       (Of_flow_mod.add ~match_:(Of_match.of_flow_key key)
          ~actions:[ Of_action.output 2 ] ()));
  Engine.run h.engine;
  Alcotest.(check int) "rule installed" 1 (Flow_table.length (Switch.flow_table h.switch));
  (* A matching packet now forwards without any packet_in. *)
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run h.engine;
  Alcotest.(check int) "no packet_in" 0 (List.length (pkt_ins h));
  Alcotest.(check int) "egressed" 1 (List.length !(h.egress2))

let test_flow_mod_with_buffer_id_releases () =
  let h = make_harness () in
  let f = frame ~src_port:43 () in
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run ~until:0.01 h.engine;
  let p = List.hd (pkt_ins h) in
  let key = Option.get (Packet.peek_flow_key f) in
  send_of h
    (Of_codec.Flow_mod
       (Of_flow_mod.add ~buffer_id:p.Of_packet_in.buffer_id
          ~match_:(Of_match.of_flow_key key)
          ~actions:[ Of_action.output 2 ] ()));
  Engine.run ~until:0.02 h.engine;
  Alcotest.(check int) "rule installed" 1 (Flow_table.length (Switch.flow_table h.switch));
  Alcotest.(check int) "buffered frame released via flow_mod" 1
    (List.length !(h.egress2))

let test_buffer_exhaustion_falls_back () =
  let config = { Switch.default_config with Switch.buffer_capacity = 2 } in
  let h = make_harness ~config () in
  for p = 1 to 3 do
    Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:p ())
  done;
  Engine.run h.engine;
  let ps = pkt_ins h in
  Alcotest.(check int) "three packet_ins" 3 (List.length ps);
  let fallbacks =
    List.filter
      (fun p -> Int32.equal p.Of_packet_in.buffer_id Of_wire.no_buffer)
      ps
  in
  Alcotest.(check int) "one fell back to full packet" 1 (List.length fallbacks);
  Alcotest.(check int) "counter agrees" 1
    (Switch.counters h.switch).Switch.full_packet_fallbacks

let test_flow_granularity_one_request_per_flow () =
  let config = { Switch.default_config with Switch.mechanism = Switch.Flow_granularity } in
  let h = make_harness ~config () in
  (* Four packets of one flow, two of another, all before any reply. *)
  for _ = 1 to 4 do
    Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:100 ())
  done;
  for _ = 1 to 2 do
    Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:200 ())
  done;
  Engine.run ~until:0.01 h.engine;
  let ps = pkt_ins h in
  Alcotest.(check int) "one request per flow" 2 (List.length ps);
  let stats = Switch.buffer_stats h.switch in
  Alcotest.(check int) "six packets buffered" 6 stats.Of_ext.packets_buffered;
  Alcotest.(check int) "two units" 2 stats.Of_ext.units_in_use

let test_flow_granularity_release_chain () =
  let config = { Switch.default_config with Switch.mechanism = Switch.Flow_granularity } in
  let h = make_harness ~config () in
  for _ = 1 to 3 do
    Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:100 ())
  done;
  Engine.run ~until:0.01 h.engine;
  let p = List.hd (pkt_ins h) in
  send_of h
    (Of_codec.Packet_out
       (Of_packet_out.release ~buffer_id:p.Of_packet_in.buffer_id ~out_port:2));
  Engine.run ~until:0.02 h.engine;
  Alcotest.(check int) "whole chain egressed" 3 (List.length !(h.egress2));
  Alcotest.(check int) "pool drained" 0
    (Switch.buffer_stats h.switch).Of_ext.packets_buffered

let test_flow_granularity_timeout_resend () =
  let config =
    {
      Switch.default_config with
      Switch.mechanism = Switch.Flow_granularity;
      resend_timeout = 0.02;
      max_resends = 1;
    }
  in
  let h = make_harness ~config () in
  Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:100 ());
  Engine.run ~until:0.1 h.engine;
  Alcotest.(check int) "original + resend" 2 (List.length (pkt_ins h));
  Alcotest.(check int) "resend counter" 1
    (Switch.counters h.switch).Switch.pkt_in_resends

let test_stale_buffer_id_error () =
  let h = make_harness () in
  send_of h (Of_codec.Packet_out (Of_packet_out.release ~buffer_id:12345l ~out_port:2));
  Engine.run h.engine;
  let errors =
    List.filter_map
      (function _, Of_codec.Error_msg e -> Some e | _ -> None)
      (messages h)
  in
  match errors with
  | [ e ] ->
      Alcotest.(check bool) "bad_request" true (e.Of_error.error_type = Of_error.Bad_request);
      Alcotest.(check int) "buffer_unknown" Of_error.Bad_request_code.buffer_unknown
        e.Of_error.code
  | _ -> Alcotest.fail "expected one error"

let test_handshake_replies () =
  let h = make_harness () in
  send_of h Of_codec.Hello;
  send_of h Of_codec.Features_request;
  send_of h (Of_codec.Echo_request (Bytes.of_string "x"));
  send_of h Of_codec.Barrier_request;
  Engine.run h.engine;
  let kinds = List.map (fun (_, m) -> Of_codec.msg_type m) (messages h) in
  Alcotest.(check (list string)) "reply sequence"
    [ "HELLO"; "FEATURES_REPLY"; "ECHO_REPLY"; "BARRIER_REPLY" ]
    (List.map Of_wire.Msg_type.to_string kinds);
  match messages h with
  | [ _; (_, Of_codec.Features_reply fr); _; _ ] ->
      Alcotest.(check int32) "advertises buffer pool" 256l fr.Of_features.n_buffers;
      Alcotest.(check int) "two ports" 2 (List.length fr.Of_features.ports)
  | _ -> Alcotest.fail "unexpected message shapes"

let test_vendor_switches_mechanism () =
  let h = make_harness () in
  Alcotest.(check string) "starts packet-granularity" "packet-granularity"
    (Switch.mechanism_to_string (Switch.mechanism h.switch));
  send_of h
    (Of_codec.Vendor
       (Of_ext.Flow_buffer_enable (Of_ext.default_backoff ~timeout:0.05)));
  Engine.run h.engine;
  Alcotest.(check string) "flow-granularity enabled" "flow-granularity"
    (Switch.mechanism_to_string (Switch.mechanism h.switch));
  send_of h (Of_codec.Vendor Of_ext.Flow_buffer_disable);
  Engine.run h.engine;
  Alcotest.(check string) "back to packet-granularity" "packet-granularity"
    (Switch.mechanism_to_string (Switch.mechanism h.switch))

(* Regression: the wire carries backoff durations as signed int32
   milliseconds, so a negative timeout or cap decodes. The switch used
   to accept it, and the next flow-granularity miss raised out of
   [Engine.run] when it armed a negative re-request delay. *)
let test_negative_backoff_refused () =
  let h = make_harness () in
  send_of h
    (Of_codec.Vendor
       (Of_ext.Flow_buffer_enable (Of_ext.default_backoff ~timeout:0.05)));
  let negative =
    { Of_ext.timeout = -0.001; multiplier = 1.0; cap = -0.001; max_resends = 3 }
  in
  Switch.handle_of_message h.switch
    (Of_codec.encode ~xid:9l (Of_codec.Vendor (Of_ext.Flow_buffer_enable negative)));
  Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:100 ());
  Engine.run ~until:0.08 h.engine;
  (match
     List.filter_map
       (function xid, Of_codec.Error_msg e -> Some (xid, e) | _ -> None)
       (messages h)
   with
  | [ (xid, e) ] ->
      Alcotest.(check int32) "echoes the request's xid" 9l xid;
      Alcotest.(check bool) "bad_request" true
        (e.Of_error.error_type = Of_error.Bad_request);
      Alcotest.(check int) "eperm" Of_error.Bad_request_code.eperm
        e.Of_error.code
  | l -> Alcotest.fail (Printf.sprintf "expected 1 error, got %d" (List.length l)));
  (* The previous backoff holds: one request, one re-request 50 ms
     later. *)
  Alcotest.(check int) "original + resend" 2 (List.length (pkt_ins h));
  Alcotest.(check string) "still flow-granularity" "flow-granularity"
    (Switch.mechanism_to_string (Switch.mechanism h.switch))

(* A refused request gets exactly one OFPT_ERROR, echoing its xid and
   carrying the type and code OpenFlow 1.0 names, and changes nothing
   else: the flow table and its microflow cache, both pools, the
   forwarding counters and both egress ports stay as they were. *)
let refusal_state h =
  let table = Switch.flow_table h.switch in
  ( ( Flow_table.length table,
      Flow_table.microflow_length table,
      Flow_table.microflow_flushes table ),
    Switch.buffer_stats h.switch,
    Option.map Flow_buffer.packets_buffered (Switch.flow_pool h.switch),
    Switch.counters h.switch,
    (List.length !(h.egress1), List.length !(h.egress2)) )

let check_refused h ~name ~xid ~error_type ~code msg =
  let entries = Flow_table.entries (Switch.flow_table h.switch) in
  let before = refusal_state h and sent = List.length (messages h) in
  Switch.handle_of_message h.switch (Of_codec.encode ~xid msg);
  Engine.run ~until:(Engine.now h.engine +. 0.01) h.engine;
  (match List.filteri (fun i _ -> i >= sent) (messages h) with
  | [ (x, Of_codec.Error_msg e) ] ->
      Alcotest.(check int32) (name ^ ": echoes the xid") xid x;
      Alcotest.(check bool) (name ^ ": error type") true
        (e.Of_error.error_type = error_type);
      Alcotest.(check int) (name ^ ": error code") code e.Of_error.code
  | l ->
      Alcotest.failf "%s: expected one OFPT_ERROR, got [%s]" name
        (String.concat "; "
           (List.map
              (fun (_, m) -> Of_wire.Msg_type.to_string (Of_codec.msg_type m))
              l)));
  Alcotest.(check bool) (name ^ ": same entries") true
    (List.equal ( == ) entries (Flow_table.entries (Switch.flow_table h.switch)));
  Alcotest.(check bool) (name ^ ": nothing else changed") true
    (before = refusal_state h)

(* A rule for [f] forwarding to port 2, and a microflow hit on it, so a
   refusal has a table and a warm cache to leave alone. *)
let install_and_hit h f =
  let table = Switch.flow_table h.switch in
  let hits = Flow_table.microflow_hits table in
  let key = Option.get (Packet.peek_flow_key f) in
  send_of h
    (Of_codec.Flow_mod
       (Of_flow_mod.add ~match_:(Of_match.of_flow_key key)
          ~actions:[ Of_action.output 2 ] ()));
  Engine.run ~until:(Engine.now h.engine +. 0.01) h.engine;
  Switch.handle_frame h.switch ~in_port:1 f;
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run ~until:(Engine.now h.engine +. 0.01) h.engine;
  Alcotest.(check int) "one microflow hit" (hits + 1) (Flow_table.microflow_hits table)

(* The switch answers no DESC or PORT request. *)
let test_stats_replies () =
  let h = make_harness () in
  install_and_hit h (frame ~src_port:5 ());
  let refused name xid req =
    check_refused h ~name ~xid ~error_type:Of_error.Bad_request
      ~code:Of_error.Bad_request_code.bad_stat (Of_codec.Stats_request req)
  in
  refused "DESC" 21l Of_stats.Desc_request;
  refused "PORT (all)" 22l (Of_stats.Port_request { port_no = Of_wire.Port.none });
  refused "PORT 1" 23l (Of_stats.Port_request { port_no = 1 })

(* FLOW and AGGREGATE requests are answered for the whole table only
   (table 0xff or 0): a match, table or out_port filter is refused with
   EPERM rather than answered for every entry. *)
let check_whole_table_only ~kind request =
  let h = make_harness () in
  install_and_hit h (frame ~src_port:5 ());
  install_and_hit h (frame ~src_port:6 ());
  let answered xid ~table_id =
    send_of_xid h xid
      (Of_codec.Stats_request
         (request ~match_:Of_match.wildcard_all ~table_id
            ~out_port:Of_wire.Port.none));
    Engine.run ~until:(Engine.now h.engine +. 0.01) h.engine;
    match !(h.to_controller) with
    | (x, Of_codec.Stats_reply reply) :: _ when Int32.equal x xid -> reply
    | _ -> Alcotest.failf "%s: no reply to the whole-table request" kind
  in
  (match (answered 31l ~table_id:0xff, answered 32l ~table_id:0) with
  | Of_stats.Flow_reply a, Of_stats.Flow_reply b ->
      Alcotest.(check (pair int int)) "both entries" (2, 2)
        (List.length a, List.length b)
  | Of_stats.Aggregate_reply a, Of_stats.Aggregate_reply b ->
      Alcotest.(check (pair int32 int32)) "both entries" (2l, 2l)
        (a.flow_count, b.flow_count)
  | _ -> Alcotest.failf "%s: wrong reply kind" kind);
  let exact =
    Of_match.of_flow_key (Option.get (Packet.peek_flow_key (frame ~src_port:5 ())))
  in
  List.iteri
    (fun i (name, match_, table_id, out_port) ->
      check_refused h ~name:(kind ^ " " ^ name) ~xid:(Int32.of_int (40 + i))
        ~error_type:Of_error.Bad_request ~code:Of_error.Bad_request_code.eperm
        (Of_codec.Stats_request (request ~match_ ~table_id ~out_port)))
    [
      ("match", exact, 0xff, Of_wire.Port.none);
      ("out_port", Of_match.wildcard_all, 0xff, 2);
      ("table_id", Of_match.wildcard_all, 1, Of_wire.Port.none);
    ]

let test_filtered_flow_stats_refused () =
  check_whole_table_only ~kind:"FLOW" (fun ~match_ ~table_id ~out_port ->
      Of_stats.Flow_request { match_; table_id; out_port })

let test_filtered_aggregate_refused () =
  check_whole_table_only ~kind:"AGGREGATE" (fun ~match_ ~table_id ~out_port ->
      Of_stats.Aggregate_request { match_; table_id; out_port })

(* FLOW_MOD DELETE and DELETE_STRICT are refused with BAD_COMMAND,
   with or without an out_port filter: the rules stay installed and the
   microflow cache stays warm. *)
let test_flow_mod_delete_refused () =
  let h = make_harness () in
  let f = frame ~src_port:5 () in
  install_and_hit h f;
  let exact = Of_match.of_flow_key (Option.get (Packet.peek_flow_key f)) in
  List.iteri
    (fun i (name, command, match_, out_port) ->
      check_refused h ~name ~xid:(Int32.of_int (50 + i))
        ~error_type:Of_error.Flow_mod_failed
        ~code:Of_error.Flow_mod_failed_code.bad_command
        (Of_codec.Flow_mod
           {
             (Of_flow_mod.add ~match_ ~actions:[] ()) with
             Of_flow_mod.command;
             out_port;
           }))
    [
      ("DELETE", Of_flow_mod.Delete, Of_match.wildcard_all, Of_wire.Port.none);
      ("DELETE out_port", Of_flow_mod.Delete, Of_match.wildcard_all, 2);
      ("DELETE_STRICT", Of_flow_mod.Delete_strict, exact, Of_wire.Port.none);
    ];
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run ~until:(Engine.now h.engine +. 0.01) h.engine;
  Alcotest.(check int) "the rule still forwards" 3 (List.length !(h.egress2))

let test_table_sweep_expires_rules () =
  let h = make_harness () in
  Switch.start h.switch;
  let f = frame ~src_port:42 () in
  let key = Option.get (Packet.peek_flow_key f) in
  send_of h
    (Of_codec.Flow_mod
       (Of_flow_mod.add ~idle_timeout:2
          ~match_:(Of_match.of_flow_key key)
          ~actions:[ Of_action.output 2 ] ()));
  Engine.run ~until:1.0 h.engine;
  Alcotest.(check int) "installed" 1 (Flow_table.length (Switch.flow_table h.switch));
  Engine.run ~until:4.0 h.engine;
  Alcotest.(check int) "swept after idle timeout" 0
    (Flow_table.length (Switch.flow_table h.switch))

(* Header rewrites are refused on each way a frame could reach egress
   with them: a FLOW_MOD installing a rule, a PACKET_OUT releasing a
   packet-granularity unit, a FLOW_MOD releasing a flow-granularity
   chain and a full-data PACKET_OUT. Each gets BAD_ACTION/BAD_TYPE, and
   the buffered frames stay held: a plain release afterwards forwards
   them unchanged. *)
let rewrite_actions =
  [
    Of_action.Set_nw_tos 0x28;
    Of_action.Set_dl_dst (Mac.of_octets 0x02 0 0 0 0 3);
    Of_action.Set_tp_dst 4242;
    Of_action.output 2;
  ]

let refused_rewrite h ~name msg =
  check_refused h ~name ~xid:61l ~error_type:Of_error.Bad_action
    ~code:Of_error.Bad_action_code.bad_type msg

let test_rewrites_on_every_egress_path () =
  let f = frame ~src_port:77 () in
  let rule ?buffer_id actions =
    Of_codec.Flow_mod
      (Of_flow_mod.add ?buffer_id
         ~match_:(Of_match.of_flow_key (Option.get (Packet.peek_flow_key f)))
         ~actions ())
  in
  (* A rule that would rewrite every hit. *)
  let h = make_harness () in
  install_and_hit h (frame ~src_port:5 ());
  refused_rewrite h ~name:"FLOW_MOD" (rule rewrite_actions);
  (* A packet-granularity release by PACKET_OUT. *)
  let h = make_harness () in
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run ~until:0.01 h.engine;
  let p = List.hd (pkt_ins h) in
  let release actions =
    Of_codec.Packet_out
      {
        (Of_packet_out.release ~buffer_id:p.Of_packet_in.buffer_id ~out_port:2) with
        Of_packet_out.actions;
      }
  in
  refused_rewrite h ~name:"packet-granularity release" (release rewrite_actions);
  send_of h (release [ Of_action.output 2 ]);
  Engine.run ~until:(Engine.now h.engine +. 0.01) h.engine;
  Alcotest.(check (list bytes)) "unit still held, released as it came" [ f ]
    !(h.egress2);
  (* A flow-granularity chain released by FLOW_MOD. *)
  let config = { Switch.default_config with Switch.mechanism = Switch.Flow_granularity } in
  let h = make_harness ~config () in
  for _ = 1 to 3 do
    Switch.handle_frame h.switch ~in_port:1 f
  done;
  Engine.run ~until:0.01 h.engine;
  let buffer_id = (List.hd (pkt_ins h)).Of_packet_in.buffer_id in
  refused_rewrite h ~name:"flow-granularity release" (rule ~buffer_id rewrite_actions);
  send_of h (rule ~buffer_id [ Of_action.output 2 ]);
  Engine.run ~until:(Engine.now h.engine +. 0.01) h.engine;
  Alcotest.(check (list bytes)) "chain still held, released as it came" [ f; f; f ]
    !(h.egress2);
  (* A PACKET_OUT carrying the whole frame. *)
  let h = make_harness () in
  refused_rewrite h ~name:"full-data PACKET_OUT"
    (Of_codec.Packet_out
       {
         (Of_packet_out.full ~frame:f ~in_port:1 ~out_port:2) with
         Of_packet_out.actions = rewrite_actions;
       })

(* OpenFlow port numbers are 16-bit: a port above 255 must get a
   hardware address from all of its bits in the FEATURES_REPLY, while
   ports up to 255 keep 02:00:00:00:00:nn. Ports outside 1..0xff00 are
   refused when attached. *)
let test_wide_port_numbers () =
  let h = make_harness () in
  let link =
    Link.create h.engine ~name:"wide" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:ignore ()
  in
  Switch.set_port h.switch ~port:300 link;
  send_of h Of_codec.Features_request;
  Engine.run h.engine;
  let addr port ports =
    Mac.to_string
      (List.find (fun p -> p.Of_features.port_no = port) ports).Of_features.hw_addr
  in
  (match messages h with
  | [ (_, Of_codec.Features_reply fr) ] ->
      Alcotest.(check string) "port 1" "02:00:00:00:00:01" (addr 1 fr.Of_features.ports);
      Alcotest.(check string) "port 300" "02:00:00:00:01:2c"
        (addr 300 fr.Of_features.ports)
  | _ -> Alcotest.fail "expected a FEATURES_REPLY");
  List.iter
    (fun port ->
      Alcotest.(check bool)
        (Printf.sprintf "port %d refused" port)
        true
        (try
           Switch.set_port h.switch ~port link;
           false
         with Invalid_argument _ -> true))
    [ 0; -1; 0xFF01; Of_wire.Port.flood ]

(* Runtime mechanism changes over the vendor extension, against every
   configured mechanism and pool size: no handler raises, the buffers a
   FEATURES_REPLY advertises are the units the FLOW_BUFFER statistics
   report, and a switch built without buffer units never buffers.
   Regression: such a switch built a 0-unit pool on FLOW_BUFFER_ENABLE,
   or on the first miss after a DISABLE, and raised [Invalid_argument]
   out of the handler; a no-buffer switch reported its configured
   capacity as [units_total] while advertising 0 buffers. *)
type mechanism_op = Enable | Disable | Miss of int

let show_mechanism_op = function
  | Enable -> "enable"
  | Disable -> "disable"
  | Miss src_port -> Printf.sprintf "miss %d" src_port

let check_advertised_units ~capacity ops h =
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
  let step op =
    h.to_controller := [];
    (match op with
    | Enable ->
        send_of h
          (Of_codec.Vendor
             (Of_ext.Flow_buffer_enable (Of_ext.default_backoff ~timeout:0.05)))
    | Disable -> send_of h (Of_codec.Vendor Of_ext.Flow_buffer_disable)
    | Miss src_port -> Switch.handle_frame h.switch ~in_port:1 (frame ~src_port ()));
    send_of h Of_codec.Features_request;
    send_of h (Of_codec.Vendor Of_ext.Flow_buffer_stats_request);
    Engine.run ~until:(Engine.now h.engine +. 0.002) h.engine;
    let msgs = messages h in
    if
      capacity = 0
      && List.exists
           (function
             | _, Of_codec.Packet_in p ->
                 not (Int32.equal p.Of_packet_in.buffer_id Of_wire.no_buffer)
             | _ -> false)
           msgs
    then fail "buffered PACKET_IN after %s" (show_mechanism_op op);
    let n_buffers =
      List.find_map
        (function
          | _, Of_codec.Features_reply f -> Some (Int32.to_int f.Of_features.n_buffers)
          | _ -> None)
        msgs
    and units_total =
      List.find_map
        (function
          | _, Of_codec.Vendor (Of_ext.Flow_buffer_stats_reply s) ->
              Some s.Of_ext.units_total
          | _ -> None)
        msgs
    in
    match (n_buffers, units_total) with
    | Some n, Some u when n = u -> ()
    | Some n, Some u ->
        fail "after %s: n_buffers %d, units_total %d" (show_mechanism_op op) n u
    | _ -> fail "after %s: a reply is missing" (show_mechanism_op op)
  in
  List.iter step ops;
  true

let prop_advertised_units =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl
           [ Switch.No_buffer; Switch.Packet_granularity; Switch.Flow_granularity ])
        (oneofl [ 0; 1; 16; 256 ])
        (list_size (int_range 1 20)
           (frequency
              [
                (1, return Enable);
                (1, return Disable);
                (3, map (fun p -> Miss p) (int_range 1 6));
              ])))
  in
  let print (mechanism, capacity, ops) =
    Printf.sprintf "%s, %d units: %s"
      (Switch.mechanism_to_string mechanism)
      capacity
      (String.concat "; " (List.map show_mechanism_op ops))
  in
  QCheck.Test.make ~name:"advertised buffers match FLOW_BUFFER stats" ~count:200
    (QCheck.make ~print ~shrink:QCheck.Shrink.(triple nil nil list) gen)
    (fun (mechanism, capacity, ops) ->
      let config =
        { Switch.default_config with Switch.mechanism; buffer_capacity = capacity }
      in
      check_advertised_units ~capacity ops (make_harness ~config ()))

let suite =
  [
    Alcotest.test_case "no-buffer miss carries full packet" `Quick
      test_miss_no_buffer_sends_full_packet;
    Alcotest.test_case "packet-granularity miss truncates" `Quick
      test_miss_packet_granularity_truncates;
    Alcotest.test_case "packet_out releases buffered frame" `Quick
      test_packet_out_releases_buffered;
    Alcotest.test_case "flow_mod installs a working rule" `Quick
      test_flow_mod_installs_rule;
    Alcotest.test_case "flow_mod with buffer_id releases" `Quick
      test_flow_mod_with_buffer_id_releases;
    Alcotest.test_case "exhaustion falls back to full packets" `Quick
      test_buffer_exhaustion_falls_back;
    Alcotest.test_case "flow granularity: one request per flow" `Quick
      test_flow_granularity_one_request_per_flow;
    Alcotest.test_case "flow granularity: chain release" `Quick
      test_flow_granularity_release_chain;
    Alcotest.test_case "flow granularity: timeout re-request" `Quick
      test_flow_granularity_timeout_resend;
    Alcotest.test_case "stale buffer id raises an error" `Quick
      test_stale_buffer_id_error;
    Alcotest.test_case "handshake replies" `Quick test_handshake_replies;
    Alcotest.test_case "vendor message switches mechanism" `Quick
      test_vendor_switches_mechanism;
    Alcotest.test_case "negative backoff refused" `Quick
      test_negative_backoff_refused;
    Alcotest.test_case "stats replies" `Quick test_stats_replies;
    Alcotest.test_case "filtered FLOW stats refused" `Quick
      test_filtered_flow_stats_refused;
    Alcotest.test_case "filtered AGGREGATE refused" `Quick
      test_filtered_aggregate_refused;
    Alcotest.test_case "FLOW_MOD delete refused" `Quick
      test_flow_mod_delete_refused;
    Alcotest.test_case "housekeeping sweep expires rules" `Quick
      test_table_sweep_expires_rules;
    Alcotest.test_case "header rewrites on every egress path" `Quick
      test_rewrites_on_every_egress_path;
    Alcotest.test_case "ports above 255" `Quick test_wide_port_numbers;
    QCheck_alcotest.to_alcotest prop_advertised_units;
  ]
