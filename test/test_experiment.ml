(* End-to-end integration tests: whole-platform runs through
   [Sdn_core], checking conservation laws, orderings the paper
   establishes, and reproducibility. *)

open Sdn_core

let run ?(workload = Config.Exp_a { n_flows = 200 }) ?(seed = 1) ~mechanism
    ~buffer ~rate () =
  Experiment.run
    {
      Config.default with
      Config.mechanism;
      buffer_capacity = buffer;
      rate_mbps = rate;
      seed;
      workload;
    }

let test_all_packets_delivered () =
  List.iter
    (fun (mechanism, buffer) ->
      let r = run ~mechanism ~buffer ~rate:30.0 () in
      Alcotest.(check int) "all in" 200 r.Experiment.packets_in;
      Alcotest.(check int) "all out" 200 r.Experiment.packets_out;
      Alcotest.(check int) "none dropped" 0 r.Experiment.packets_dropped;
      Alcotest.(check int) "all flows complete" 200 r.Experiment.flows_completed)
    [ (Config.No_buffer, 0); (Config.Packet_granularity, 256);
      (Config.Flow_granularity, 256) ]

let test_one_pkt_in_per_miss_exp_a () =
  (* Single-packet flows: every packet misses exactly once. *)
  let r = run ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:30.0 () in
  Alcotest.(check int) "one request per flow" 200 r.Experiment.pkt_ins;
  (* Responses: one flow_mod + one packet_out per request (plus the
     3-message handshake on each direction's count). *)
  Alcotest.(check bool) "down is about twice up" true
    (abs (r.Experiment.ctrl_msgs_down - (2 * r.Experiment.pkt_ins)) < 10)

let test_buffered_load_much_lower () =
  let nb = run ~mechanism:Config.No_buffer ~buffer:0 ~rate:50.0 () in
  let b = run ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:50.0 () in
  Alcotest.(check bool) "up-load reduced by >70%" true
    (b.Experiment.ctrl_load_up_mbps < 0.3 *. nb.Experiment.ctrl_load_up_mbps);
  Alcotest.(check bool) "down-load reduced" true
    (b.Experiment.ctrl_load_down_mbps < 0.4 *. nb.Experiment.ctrl_load_down_mbps);
  Alcotest.(check bool) "controller cheaper" true
    (b.Experiment.controller_cpu_pct < nb.Experiment.controller_cpu_pct)

let test_no_buffer_uses_no_units () =
  let r = run ~mechanism:Config.No_buffer ~buffer:0 ~rate:50.0 () in
  Alcotest.(check int) "no units" 0 r.Experiment.buffer_max_in_use;
  Alcotest.(check int) "every miss is a full-packet request" 200
    r.Experiment.full_packet_fallbacks

let test_small_buffer_exhausts_at_high_rate () =
  let b16 =
    run
      ~workload:(Config.Exp_a { n_flows = 500 })
      ~mechanism:Config.Packet_granularity ~buffer:16 ~rate:60.0 ()
  in
  Alcotest.(check bool) "hits the ceiling" true
    (b16.Experiment.buffer_max_in_use = 16);
  Alcotest.(check bool) "falls back for the excess" true
    (b16.Experiment.full_packet_fallbacks > 0);
  (* At a gentle rate the same buffer never exhausts. *)
  let slow =
    run
      ~workload:(Config.Exp_a { n_flows = 500 })
      ~mechanism:Config.Packet_granularity ~buffer:16 ~rate:10.0 ()
  in
  Alcotest.(check int) "no fallback at 10 Mbps" 0
    slow.Experiment.full_packet_fallbacks

let test_flow_granularity_fewer_requests_exp_b () =
  let workload = Config.Exp_b { n_flows = 20; packets_per_flow = 20; concurrent = 5 } in
  let pkt = run ~workload ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:95.0 () in
  let flow = run ~workload ~mechanism:Config.Flow_granularity ~buffer:256 ~rate:95.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "fewer requests (%d vs %d)" flow.Experiment.pkt_ins
       pkt.Experiment.pkt_ins)
    true
    (flow.Experiment.pkt_ins < pkt.Experiment.pkt_ins);
  Alcotest.(check bool) "at least one request per flow" true
    (flow.Experiment.pkt_ins >= 20);
  Alcotest.(check bool) "lower control load" true
    (flow.Experiment.ctrl_load_up_mbps < pkt.Experiment.ctrl_load_up_mbps);
  Alcotest.(check bool) "fewer buffer units" true
    (flow.Experiment.buffer_max_in_use <= pkt.Experiment.buffer_max_in_use);
  Alcotest.(check int) "both deliver everything" pkt.Experiment.packets_out
    flow.Experiment.packets_out

let test_reproducibility () =
  let a = run ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:40.0 ~seed:9 () in
  let b = run ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:40.0 ~seed:9 () in
  Alcotest.(check (float 0.0)) "identical load" a.Experiment.ctrl_load_up_mbps
    b.Experiment.ctrl_load_up_mbps;
  Alcotest.(check (float 0.0)) "identical setup delay"
    a.Experiment.setup_delay.Experiment.mean b.Experiment.setup_delay.Experiment.mean;
  let c = run ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:40.0 ~seed:10 () in
  Alcotest.(check bool) "different seed differs" true
    (a.Experiment.setup_delay.Experiment.mean
     <> c.Experiment.setup_delay.Experiment.mean)

let test_delays_positive_and_consistent () =
  let r = run ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:30.0 () in
  let s = r.Experiment.setup_delay and c = r.Experiment.controller_delay in
  Alcotest.(check bool) "setup positive" true (s.Experiment.mean > 0.0);
  Alcotest.(check bool) "controller positive" true (c.Experiment.mean > 0.0);
  Alcotest.(check bool) "controller < setup" true
    (c.Experiment.mean < s.Experiment.mean);
  Alcotest.(check bool) "switch delay ~ setup - controller" true
    (abs_float
       (r.Experiment.switch_delay.Experiment.mean
       -. (s.Experiment.mean -. c.Experiment.mean))
     < 0.3e-3);
  Alcotest.(check int) "every flow measured" 200 s.Experiment.count

(* Releasing via FLOW_MOD (buffer id inside the install message) should
   halve the number of downstream messages — the ablation of the
   paper's message-pair design. *)
let test_release_strategy_ablation () =
  let base =
    {
      Config.default with
      Config.workload = Config.Exp_a { n_flows = 200 };
      rate_mbps = 30.0;
    }
  in
  let pair = Experiment.run base in
  let fmr =
    Experiment.run { base with Config.release_strategy = `Flow_mod_release }
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer down msgs (%d vs %d)" fmr.Experiment.ctrl_msgs_down
       pair.Experiment.ctrl_msgs_down)
    true
    (fmr.Experiment.ctrl_msgs_down < pair.Experiment.ctrl_msgs_down);
  Alcotest.(check int) "same deliveries" pair.Experiment.packets_out
    fmr.Experiment.packets_out

let test_udp_burst_single_request_flow_granularity () =
  let workload = Config.Udp_burst { n_packets = 100 } in
  let r = run ~workload ~mechanism:Config.Flow_granularity ~buffer:256 ~rate:95.0 () in
  (* One sudden UDP flow: a handful of requests (first + re-misses in
     the install window), far fewer than the 100 of packet
     granularity. *)
  let pkt = run ~workload ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:95.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "burst requests: flow %d vs packet %d" r.Experiment.pkt_ins
       pkt.Experiment.pkt_ins)
    true
    (r.Experiment.pkt_ins * 4 < pkt.Experiment.pkt_ins);
  Alcotest.(check int) "all delivered" 100 r.Experiment.packets_out

let test_calibration_sanity () =
  List.iter
    (fun (what, ok) -> Alcotest.(check bool) what true ok)
    (Calibration.sanity ())

(* The switch refuses the OpenFlow it does not serve with OFPT_ERROR,
   so a controller that starts sending it (a FLOW_MOD delete, a header
   rewrite, FLOW_REMOVED, a filtered or DESC/PORT stats request) shows
   up here: no shipped scenario may draw an ERROR from the switch. Each
   mechanism runs on Exp-A and Exp-B, and on the outage, crash (whose
   reconciliation audits send FLOW stats requests) and policy sweeps'
   bases with one point of each sweep. *)
let test_no_scenario_draws_an_error () =
  let observe config =
    let scenario = Scenario.build config in
    let plan = Experiment.injections_of config scenario.Scenario.traffic_rng in
    Sdn_traffic.Pktgen.schedule scenario.Scenario.engine
      ~inject:(fun ~in_port frame -> Scenario.inject scenario ~in_port frame)
      plan;
    Scenario.run_until_quiet
      ~min_time:(Sdn_traffic.Pktgen.stats_of plan).Sdn_traffic.Pktgen.last scenario;
    let to_controller =
      Sdn_measure.Capture.messages_of_type scenario.Scenario.capture
        Sdn_measure.Capture.To_controller
    in
    ( to_controller Sdn_openflow.Of_wire.Msg_type.Packet_in,
      to_controller Sdn_openflow.Of_wire.Msg_type.Error )
  in
  let mechanisms = Chaos.default_mechanisms in
  let outage ~mechanism ~fail_mode =
    let base = Chaos.default_outage_base ~seed:7 in
    {
      (Config.with_mechanism base mechanism) with
      Config.fail_mode;
      faults =
        {
          base.Config.faults with
          Sdn_sim.Faults.outages = [ { Sdn_sim.Faults.start_s = 0.15; stop_s = 0.25 } ];
        };
    }
  in
  let configs =
    List.concat_map
      (fun mechanism ->
        [
          Config.with_mechanism
            (Config.exp_a ~mechanism ~buffer_capacity:256 ~rate_mbps:60.0 ~seed:3)
            mechanism;
          Config.with_mechanism (Config.exp_b ~mechanism ~rate_mbps:60.0 ~seed:3) mechanism;
          outage ~mechanism ~fail_mode:Config.Fail_secure;
          outage ~mechanism ~fail_mode:Config.Fail_standalone;
        ]
        @ List.concat_map
            (fun node ->
              List.map
                (fun mode ->
                  Chaos.crash_point_config ~base:(Chaos.default_crash_base ~seed:7)
                    ~mechanism ~node ~mode ~down:0.05)
                Chaos.default_crash_modes)
            Chaos.default_crash_nodes)
      mechanisms
    @ List.map
        (fun policy ->
          Chaos.policy_point_config ~base:(Chaos.default_policy_base ~seed:7)
            ~policy ~buffer:16)
        Chaos.default_policies
  in
  List.iter
    (fun config ->
      let packet_ins, errors = observe config in
      Alcotest.(check bool) (Config.label config ^ ": the run reached the controller")
        true (packet_ins > 0);
      Alcotest.(check int) (Config.label config ^ ": ERRORs to the controller") 0 errors)
    configs

let suite =
  [
    Alcotest.test_case "all packets delivered under every mechanism" `Quick
      test_all_packets_delivered;
    Alcotest.test_case "one request per single-packet flow" `Quick
      test_one_pkt_in_per_miss_exp_a;
    Alcotest.test_case "buffering slashes control load" `Quick
      test_buffered_load_much_lower;
    Alcotest.test_case "no-buffer uses no units" `Quick test_no_buffer_uses_no_units;
    Alcotest.test_case "buffer-16 exhausts at high rate" `Quick
      test_small_buffer_exhausts_at_high_rate;
    Alcotest.test_case "flow granularity sends fewer requests (Exp-B)" `Quick
      test_flow_granularity_fewer_requests_exp_b;
    Alcotest.test_case "bit-for-bit reproducibility" `Quick test_reproducibility;
    Alcotest.test_case "delay metrics are consistent" `Quick
      test_delays_positive_and_consistent;
    Alcotest.test_case "release-strategy ablation" `Quick
      test_release_strategy_ablation;
    Alcotest.test_case "UDP burst favours flow granularity" `Quick
      test_udp_burst_single_request_flow_granularity;
    Alcotest.test_case "calibration sanity conditions" `Quick
      test_calibration_sanity;
    Alcotest.test_case "no shipped scenario draws an ERROR" `Quick
      test_no_scenario_draws_an_error;
  ]
