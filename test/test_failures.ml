(* Failure tests: the PORT_STATUS codec, filtered rule deletion,
   control-channel loss and malformed frames at either endpoint. *)

open Sdn_sim
open Sdn_net
open Sdn_openflow
open Sdn_switch

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2

let frame ?(src_port = 1000) () =
  Packet.encode
    (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2
       ~src_ip:(Ip.make 10 0 0 1) ~dst_ip:(Ip.make 10 0 0 2) ~src_port
       ~dst_port:9 ~frame_size:300 ~payload_fill:(fun _ -> ()))

let quiet_costs =
  { Costs.default with Costs.service_noise_sigma = 0.0; flow_mod_apply_latency = 1e-6 }

type harness = {
  engine : Engine.t;
  switch : Switch.t;
  to_controller : (int32 * Of_codec.msg) list ref;
}

let make_harness () =
  let engine = Engine.create () in
  let switch =
    Switch.create engine ~config:Switch.default_config ~costs:quiet_costs
      ~rng:(Rng.of_int 1) ()
  in
  let to_controller = ref [] in
  let out =
    Link.create engine ~name:"out" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun (_ : Bytes.t) -> ())
      ()
  in
  let ctrl =
    Link.create engine ~name:"ctrl" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun buf ->
        match Of_codec.decode buf with
        | Ok decoded -> to_controller := decoded :: !to_controller
        | Error e -> Alcotest.fail e)
      ()
  in
  Switch.set_port switch ~port:2 out;
  Switch.set_controller_link switch ctrl;
  { engine; switch; to_controller }

let install h ~src_port ~out_port =
  let key = Option.get (Packet.peek_flow_key (frame ~src_port ())) in
  Switch.handle_of_message h.switch
    (Of_codec.encode ~xid:1l
       (Of_codec.Flow_mod
          (Of_flow_mod.add
             ~match_:(Of_match.of_flow_key key)
             ~actions:[ Of_action.output out_port ]
             ())));
  Engine.run ~until:(Engine.now h.engine +. 0.001) h.engine

let test_port_status_roundtrip () =
  let msg =
    Of_codec.Port_status
      {
        Of_port_status.reason = Of_port_status.Modify;
        port = { Of_features.port_no = 2; hw_addr = mac2; name = "eth2" };
        link_down = true;
      }
  in
  match Of_codec.decode (Of_codec.encode ~xid:3l msg) with
  | Ok (3l, msg') -> Alcotest.(check bool) "equal" true (Of_codec.equal msg msg')
  | Ok _ -> Alcotest.fail "xid mangled"
  | Error e -> Alcotest.fail e

let test_delete_with_out_port_filter () =
  let h = make_harness () in
  install h ~src_port:1 ~out_port:2;
  install h ~src_port:2 ~out_port:3;
  Alcotest.(check int) "two rules" 2 (Flow_table.length (Switch.flow_table h.switch));
  (* Delete only the rules forwarding into port 2. *)
  Switch.handle_of_message h.switch
    (Of_codec.encode ~xid:9l
       (Of_codec.Flow_mod
          {
            (Of_flow_mod.add ~match_:Of_match.wildcard_all ~actions:[] ()) with
            Of_flow_mod.command = Of_flow_mod.Delete;
            out_port = 2;
          }));
  Engine.run ~until:0.05 h.engine;
  let remaining = Flow_table.entries (Switch.flow_table h.switch) in
  match remaining with
  | [ e ] -> (
      match e.Flow_entry.actions with
      | [ Of_action.Output { port = 3; _ } ] -> ()
      | _ -> Alcotest.fail "wrong survivor")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 survivor, got %d" (List.length l))

(* {2 Control-channel loss and the re-request recovery path} *)

let lossy_config ~mechanism ~loss_rate ~max_resends =
  let open Sdn_core in
  {
    Config.default with
    Config.mechanism;
    buffer_capacity = (if mechanism = Config.No_buffer then 0 else 256);
    workload = Config.Exp_b { n_flows = 20; packets_per_flow = 10; concurrent = 4 };
    rate_mbps = 15.0;
    seed = 21;
    faults = { Sdn_sim.Faults.none with Sdn_sim.Faults.loss_rate };
    max_resends;
  }

(* Under 20% control loss, flow granularity with a sufficient resend
   budget recovers every flow: the exponential-backoff re-request keeps
   asking until the release finally gets through. Deterministic seed —
   no retries, no flakiness. *)
let test_flow_granularity_survives_loss () =
  let open Sdn_core in
  let result =
    Experiment.run
      (lossy_config ~mechanism:Config.Flow_granularity ~loss_rate:0.2
         ~max_resends:12)
  in
  Alcotest.(check int)
    (Printf.sprintf "all %d flows complete" result.Experiment.flows_started)
    result.Experiment.flows_started result.Experiment.flows_completed;
  Alcotest.(check int) "every packet delivered" result.Experiment.packets_in
    result.Experiment.packets_out;
  Alcotest.(check int) "no flow abandoned" 0 result.Experiment.flows_abandoned;
  Alcotest.(check bool)
    (Printf.sprintf "loss actually hit the channel (%d lost, %d recovered)"
       result.Experiment.ctrl_msgs_lost result.Experiment.flows_recovered)
    true
    (result.Experiment.ctrl_msgs_lost > 0
    && result.Experiment.flows_recovered > 0);
  Alcotest.(check bool) "recovery delays recorded" true
    (result.Experiment.recovery_delay.Experiment.count
    = result.Experiment.flows_recovered)

(* With the resend budget exhausted the chain is dropped and the
   abandonment counter says so. max_resends = 0 means one request and
   no second chance — under heavy loss some flows must die. *)
let test_flow_granularity_abandons_when_exhausted () =
  let open Sdn_core in
  let result =
    Experiment.run
      (lossy_config ~mechanism:Config.Flow_granularity ~loss_rate:0.4
         ~max_resends:0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "flows abandoned (%d)" result.Experiment.flows_abandoned)
    true
    (result.Experiment.flows_abandoned > 0);
  Alcotest.(check bool)
    (Printf.sprintf "packets lost (%d/%d)" result.Experiment.packets_out
       result.Experiment.packets_in)
    true
    (result.Experiment.packets_out < result.Experiment.packets_in)

(* The mechanisms without re-request machinery have no recovery story:
   a lost control message means lost packets. *)
let test_other_mechanisms_lose_packets () =
  let open Sdn_core in
  List.iter
    (fun mechanism ->
      let result =
        Experiment.run (lossy_config ~mechanism ~loss_rate:0.2 ~max_resends:12)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s loses packets (%d/%d)" (Config.label result.Experiment.config)
           result.Experiment.packets_out result.Experiment.packets_in)
        true
        (result.Experiment.packets_out < result.Experiment.packets_in);
      Alcotest.(check int)
        (Printf.sprintf "%s has no recovery path" (Config.label result.Experiment.config))
        0 result.Experiment.flows_recovered)
    [ Config.No_buffer; Config.Packet_granularity ]

(* Same seed, same chaos: the fault schedule is a pure function of the
   seed, so the whole result record matches run for run. *)
let test_lossy_run_deterministic () =
  let open Sdn_core in
  let run () =
    let r =
      Experiment.run
        (lossy_config ~mechanism:Config.Flow_granularity ~loss_rate:0.2
           ~max_resends:12)
    in
    ( r.Experiment.flows_completed,
      r.Experiment.packets_out,
      r.Experiment.pkt_in_resends,
      r.Experiment.flows_recovered,
      r.Experiment.ctrl_msgs_lost,
      r.Experiment.recovery_delay )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical outcomes" true (a = b)

(* ---- Malformed frames ---- *)

(* Each malformed frame, with the OFPT_ERROR type, code and xid the
   receiving endpoint must answer it with. *)
let malformed_frames =
  let hello_with ~byte ~value =
    let buf = Of_codec.encode ~xid:41l Of_codec.Hello in
    Bytes.set_uint8 buf byte value;
    buf
  in
  [
    ( "3-byte frame",
      Bytes.of_string "abc",
      Of_error.Bad_request,
      Of_error.Bad_request_code.bad_len,
      0l );
    ( "HELLO with version 0x04",
      hello_with ~byte:0 ~value:0x04,
      Of_error.Hello_failed,
      Of_error.Hello_failed_code.incompatible,
      41l );
    ( "HELLO with type 0xEE",
      hello_with ~byte:1 ~value:0xEE,
      Of_error.Bad_request,
      Of_error.Bad_request_code.bad_type,
      41l );
  ]

let check_one_error what replies ~error_type ~code ~xid =
  match replies with
  | [ (x, Of_codec.Error_msg e) ] ->
      Alcotest.(check int32) (what ^ ": echoes the xid") xid x;
      Alcotest.(check bool) (what ^ ": error type") true
        (e.Of_error.error_type = error_type);
      Alcotest.(check int) (what ^ ": error code") code e.Of_error.code
  | l ->
      Alcotest.failf "%s: expected one OFPT_ERROR, got %d messages" what
        (List.length l)

let test_malformed_frame_replies () =
  List.iter
    (fun (what, buf, error_type, code, xid) ->
      let h = make_harness () in
      Switch.handle_of_message h.switch buf;
      Engine.run ~until:1.0 h.engine;
      check_one_error ("switch, " ^ what) !(h.to_controller) ~error_type ~code
        ~xid;
      let engine = Engine.create () in
      let controller =
        Sdn_controller.Controller.create engine
          ~app:(Sdn_controller.Apps.forwarding ~hosts:[] ())
          ~costs:Sdn_controller.Costs.default ~rng:(Rng.of_int 1) ()
      in
      let to_switch = ref [] in
      Sdn_controller.Controller.set_switch_link controller
        (Link.create engine ~name:"down" ~bandwidth_bps:1e9 ~propagation_s:0.0
           ~receiver:(fun reply ->
             match Of_codec.decode reply with
             | Ok decoded -> to_switch := decoded :: !to_switch
             | Error e -> Alcotest.fail e)
           ());
      Sdn_controller.Controller.handle_message controller buf;
      Engine.run ~until:1.0 engine;
      check_one_error ("controller, " ^ what) !to_switch ~error_type ~code ~xid)
    malformed_frames

let suite =
  [
    Alcotest.test_case "PORT_STATUS roundtrip" `Quick test_port_status_roundtrip;
    Alcotest.test_case "delete honours out_port filter" `Quick
      test_delete_with_out_port_filter;
    Alcotest.test_case "flow granularity survives 20% control loss" `Quick
      test_flow_granularity_survives_loss;
    Alcotest.test_case "abandons flows when resends exhausted" `Quick
      test_flow_granularity_abandons_when_exhausted;
    Alcotest.test_case "other mechanisms lose packets under loss" `Quick
      test_other_mechanisms_lose_packets;
    Alcotest.test_case "lossy runs are deterministic" `Quick
      test_lossy_run_deterministic;
    Alcotest.test_case "malformed frames draw one OFPT_ERROR at each endpoint"
      `Quick test_malformed_frame_replies;
  ]
