(* Tests for the protocol/config extensions: SET_CONFIG / GET_CONFIG,
   the FLOW_REMOVED codec and the switch's refusal to send one, the
   lossy control channel, and the ablation-facing configuration
   plumbing. *)

open Sdn_sim
open Sdn_net
open Sdn_openflow
open Sdn_core

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2

let frame ?(src_port = 1000) () =
  Packet.encode
    (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2
       ~src_ip:(Ip.make 10 0 0 1) ~dst_ip:(Ip.make 10 0 0 2) ~src_port
       ~dst_port:9 ~frame_size:600 ~payload_fill:(fun _ -> ()))

(* ---- Codec roundtrips for the new messages ---- *)

let roundtrip msg =
  let encoded = Of_codec.encode ~xid:5l msg in
  match Of_codec.decode encoded with
  | Ok (_, msg') ->
      Alcotest.(check bool)
        (Format.asprintf "roundtrip %a" Of_codec.pp msg)
        true (Of_codec.equal msg msg')
  | Error e -> Alcotest.fail e

let test_config_roundtrip () =
  roundtrip Of_codec.Get_config_request;
  roundtrip (Of_codec.Get_config_reply { Of_config.flags = 0; miss_send_len = 128 });
  roundtrip (Of_codec.Set_config { Of_config.flags = 1; miss_send_len = 1500 })

let test_flow_removed_roundtrip () =
  let key =
    Flow_key.make ~proto:17 ~src_ip:(Ip.make 10 0 0 1) ~dst_ip:(Ip.make 10 0 0 2)
      ~src_port:1 ~dst_port:2
  in
  List.iter
    (fun reason ->
      roundtrip
        (Of_codec.Flow_removed
           {
             Of_flow_removed.match_ = Of_match.of_flow_key key;
             cookie = 9L;
             priority = 1;
             reason;
             duration_sec = 7l;
             duration_nsec = 500l;
             idle_timeout = 5;
             packet_count = 42L;
             byte_count = 42_000L;
           }))
    [ Of_flow_removed.Idle_timeout; Of_flow_removed.Hard_timeout;
      Of_flow_removed.Delete ]

(* ---- Switch behaviour: SET_CONFIG controls truncation ---- *)

let switch_harness config =
  let engine = Engine.create () in
  let costs =
    { Sdn_switch.Costs.default with Sdn_switch.Costs.service_noise_sigma = 0.0 }
  in
  let switch = Sdn_switch.Switch.create engine ~config ~costs ~rng:(Rng.of_int 1) () in
  let to_controller = ref [] in
  let ctrl =
    Link.create engine ~name:"ctrl" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun buf ->
        match Of_codec.decode buf with
        | Ok decoded -> to_controller := decoded :: !to_controller
        | Error e -> Alcotest.fail e)
      ()
  in
  let sink =
    Link.create engine ~name:"sink" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun (_ : Bytes.t) -> ())
      ()
  in
  Sdn_switch.Switch.set_port switch ~port:2 sink;
  Sdn_switch.Switch.set_controller_link switch ctrl;
  (engine, switch, to_controller)

let test_set_config_changes_truncation () =
  let engine, switch, msgs = switch_harness Sdn_switch.Switch.default_config in
  Alcotest.(check int) "default 128" 128 (Sdn_switch.Switch.miss_send_len switch);
  Sdn_switch.Switch.handle_of_message switch
    (Of_codec.encode ~xid:1l
       (Of_codec.Set_config { Of_config.flags = 0; miss_send_len = 64 }));
  Engine.run ~until:0.001 engine;
  Alcotest.(check int) "updated" 64 (Sdn_switch.Switch.miss_send_len switch);
  Sdn_switch.Switch.handle_frame switch ~in_port:1 (frame ());
  Engine.run ~until:0.01 engine;
  let pkt_in =
    List.find_map
      (function _, Of_codec.Packet_in p -> Some p | _ -> None)
      !msgs
  in
  match pkt_in with
  | Some p ->
      Alcotest.(check int) "64-byte data" 64 (Bytes.length p.Of_packet_in.data)
  | None -> Alcotest.fail "expected a packet_in"

let test_get_config_reply () =
  let engine, switch, msgs = switch_harness Sdn_switch.Switch.default_config in
  Sdn_switch.Switch.handle_of_message switch
    (Of_codec.encode ~xid:1l Of_codec.Get_config_request);
  Engine.run ~until:0.001 engine;
  match !msgs with
  | [ (_, Of_codec.Get_config_reply c) ] ->
      Alcotest.(check int) "reports miss_send_len" 128 c.Of_config.miss_send_len
  | _ -> Alcotest.fail "expected a config reply"

(* The switch sends no FLOW_REMOVED: a FLOW_MOD that asks for one is
   refused with FLOW_MOD_FAILED/EPERM, echoing its xid, and installs
   nothing; an unflagged rule on the same match installs and expires
   silently. *)
let test_flow_removed_on_expiry () =
  let engine, switch, msgs = switch_harness Sdn_switch.Switch.default_config in
  Sdn_switch.Switch.start switch;
  let key = Option.get (Packet.peek_flow_key (frame ())) in
  let install ~xid ~send_flow_rem ~priority =
    let fm =
      Of_flow_mod.add ~idle_timeout:1 ~priority
        ~match_:(Of_match.of_flow_key key)
        ~actions:[ Of_action.output 2 ]
        ()
    in
    Sdn_switch.Switch.handle_of_message switch
      (Of_codec.encode ~xid
         (Of_codec.Flow_mod { fm with Of_flow_mod.send_flow_rem }))
  in
  install ~xid:11l ~send_flow_rem:true ~priority:5;
  install ~xid:12l ~send_flow_rem:false ~priority:1;
  let table = Sdn_switch.Switch.flow_table switch in
  Engine.run ~until:0.5 engine;
  (match Sdn_switch.Flow_table.entries table with
  | [ e ] -> Alcotest.(check int) "the unflagged rule" 1 e.Sdn_switch.Flow_entry.priority
  | l -> Alcotest.failf "expected 1 rule, got %d" (List.length l));
  Engine.run ~until:3.5 engine;
  Alcotest.(check int) "expired" 0 (Sdn_switch.Flow_table.length table);
  match List.rev !msgs with
  | [ (xid, Of_codec.Error_msg e) ] ->
      Alcotest.(check int32) "echoes the xid" 11l xid;
      Alcotest.(check bool) "flow_mod_failed" true
        (e.Of_error.error_type = Of_error.Flow_mod_failed);
      Alcotest.(check int) "eperm" Of_error.Flow_mod_failed_code.eperm e.Of_error.code
  | l -> Alcotest.failf "expected one OFPT_ERROR and nothing else, got %d" (List.length l)

(* ---- Lossy links ---- *)

let loss_plan ~rate =
  Faults.create
    ~spec:{ Faults.none with Faults.loss_rate = rate }
    ~rng:(Rng.of_int 5) ()

let test_link_loss_statistics () =
  let engine = Engine.create () in
  let received = ref 0 in
  let link =
    Link.create engine ~name:"lossy" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~faults:(loss_plan ~rate:0.3)
      ~receiver:(fun (_ : int) -> incr received)
      ()
  in
  for i = 1 to 1000 do
    Link.send link ~size:100 i
  done;
  Engine.run engine;
  let lost = Link.messages_lost link in
  Alcotest.(check int) "conservation" 1000 (!received + lost);
  Alcotest.(check bool)
    (Printf.sprintf "loss near 30%% (got %d/1000)" lost)
    true
    (lost > 230 && lost < 370)

let test_link_loss_rate_validation () =
  Alcotest.(check bool) "rejects rate > 1" true
    (try
       ignore (loss_plan ~rate:1.5);
       false
     with Invalid_argument _ -> true)

let test_zero_loss_is_lossless () =
  let engine = Engine.create () in
  let received = ref 0 in
  let link =
    Link.create engine ~name:"clean" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~faults:(loss_plan ~rate:0.0)
      ~receiver:(fun (_ : int) -> incr received)
      ()
  in
  for i = 1 to 100 do
    Link.send link ~size:10 i
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 100 !received

(* ---- End-to-end under control-channel loss ---- *)

let run_lossy mechanism =
  Experiment.run
    {
      Config.default with
      Config.mechanism;
      buffer_capacity = 256;
      rate_mbps = 40.0;
      workload = Config.Exp_a { n_flows = 300 };
      faults = { Faults.none with Faults.loss_rate = 0.08 };
      seed = 4;
    }

let test_flow_granularity_survives_loss () =
  let flow = run_lossy Config.Flow_granularity in
  Alcotest.(check bool) "some messages were lost" true
    (flow.Experiment.ctrl_msgs_lost > 0);
  Alcotest.(check bool) "re-requests fired" true
    (flow.Experiment.pkt_in_resends > 0);
  Alcotest.(check bool)
    (Printf.sprintf "delivery >= 99%% (%d/%d)" flow.Experiment.packets_out
       flow.Experiment.packets_in)
    true
    (float_of_int flow.Experiment.packets_out
     >= 0.99 *. float_of_int flow.Experiment.packets_in)

let test_packet_granularity_strands_packets_under_loss () =
  let pkt = run_lossy Config.Packet_granularity in
  Alcotest.(check bool) "messages were lost" true (pkt.Experiment.ctrl_msgs_lost > 0);
  Alcotest.(check bool)
    (Printf.sprintf "some packets stranded (%d delivered of %d)"
       pkt.Experiment.packets_out pkt.Experiment.packets_in)
    true
    (pkt.Experiment.packets_out < pkt.Experiment.packets_in)

let test_loss_reproducible () =
  let a = run_lossy Config.Flow_granularity in
  let b = run_lossy Config.Flow_granularity in
  Alcotest.(check int) "same losses" a.Experiment.ctrl_msgs_lost
    b.Experiment.ctrl_msgs_lost;
  Alcotest.(check int) "same resends" a.Experiment.pkt_in_resends
    b.Experiment.pkt_in_resends

(* ---- miss_send_len plumbing end-to-end ---- *)

let test_miss_send_len_scales_load () =
  let run len =
    Experiment.run
      {
        Config.default with
        Config.workload = Config.Exp_a { n_flows = 200 };
        rate_mbps = 30.0;
        miss_send_len = len;
      }
  in
  let small = run 64 and big = run 512 in
  Alcotest.(check bool)
    (Printf.sprintf "larger requests, larger load (%.2f vs %.2f)"
       small.Experiment.ctrl_load_up_mbps big.Experiment.ctrl_load_up_mbps)
    true
    (big.Experiment.ctrl_load_up_mbps > small.Experiment.ctrl_load_up_mbps *. 1.5)

let suite =
  [
    Alcotest.test_case "config message roundtrips" `Quick test_config_roundtrip;
    Alcotest.test_case "flow_removed roundtrips" `Quick test_flow_removed_roundtrip;
    Alcotest.test_case "SET_CONFIG changes truncation" `Quick
      test_set_config_changes_truncation;
    Alcotest.test_case "GET_CONFIG reports state" `Quick test_get_config_reply;
    Alcotest.test_case "FLOW_REMOVED on expiry (flagged rule refused)" `Quick
      test_flow_removed_on_expiry;
    Alcotest.test_case "link loss statistics" `Quick test_link_loss_statistics;
    Alcotest.test_case "loss rate validation" `Quick test_link_loss_rate_validation;
    Alcotest.test_case "zero loss delivers everything" `Quick
      test_zero_loss_is_lossless;
    Alcotest.test_case "flow granularity survives control loss" `Quick
      test_flow_granularity_survives_loss;
    Alcotest.test_case "packet granularity strands packets under loss" `Quick
      test_packet_granularity_strands_packets_under_loss;
    Alcotest.test_case "loss model is reproducible" `Quick test_loss_reproducible;
    Alcotest.test_case "miss_send_len scales control load" `Quick
      test_miss_send_len_scales_load;
  ]
