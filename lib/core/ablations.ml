open Sdn_measure

let run_config config = Experiment.run config

(* ---- Buffer sizing (paper Section IV.G) ---- *)

let buffer_sizing ?(rates = [ 25.0; 50.0; 75.0; 100.0 ])
    ?(sizes = [ 8; 16; 24; 32; 48; 64; 80; 128; 256 ]) ?(seed = 1) () =
  Printf.printf
    "\n== Ablation: buffer sizing (Exp-A, packet granularity) ==\n\
     Units in use and full-packet fallbacks per (rate, pool size); the\n\
     paper concludes ~80 units suffice for a 100 Mbps interface.\n\n";
  let by_rate =
    List.map
      (fun rate ->
        ( rate,
          List.map
            (fun size ->
              ( size,
                run_config
                  (Config.exp_a ~mechanism:Config.Packet_granularity
                     ~buffer_capacity:size ~rate_mbps:rate ~seed) ))
            sizes ))
      rates
  in
  let sufficient (r : Experiment.result) = r.Experiment.full_packet_fallbacks = 0 in
  let rows =
    List.concat_map
      (fun (rate, by_size) ->
        List.map
          (fun (size, r) ->
            [
              Printf.sprintf "%.0f" rate;
              string_of_int size;
              Printf.sprintf "%.1f" r.Experiment.buffer_mean_in_use;
              string_of_int r.Experiment.buffer_max_in_use;
              string_of_int r.Experiment.full_packet_fallbacks;
              (if sufficient r then "yes" else "no");
            ])
          by_size)
      by_rate
  in
  Report.print_table
    ~header:
      [ "rate(Mbps)"; "pool size"; "mean in use"; "max in use"; "fallbacks";
        "sufficient" ]
    ~rows;
  (* Minimum sufficient size per rate, from the runs above. *)
  Printf.printf "\nMinimum sufficient pool size per rate:\n";
  List.iter
    (fun (rate, by_size) ->
      let min_sufficient =
        List.find_map
          (fun (size, r) -> if sufficient r then Some size else None)
          by_size
      in
      Printf.printf "  %3.0f Mbps: %s units\n" rate
        (match min_sufficient with Some s -> string_of_int s | None -> ">max"))
    by_rate

(* ---- miss_send_len sweep ---- *)

let miss_send_len_sweep ?(lengths = [ 64; 128; 256; 512; 1000 ]) ?(rate = 60.0)
    ?(seed = 1) () =
  Printf.printf
    "\n== Ablation: PACKET_IN truncation length (Exp-A, buffer-256, %.0f Mbps) ==\n\
     More bytes per request give the controller deeper visibility (e.g.\n\
     for security inspection) at a control-load cost.\n\n"
    rate;
  let rows =
    List.map
      (fun len ->
        let r =
          run_config
            {
              (Config.exp_a ~mechanism:Config.Packet_granularity
                 ~buffer_capacity:256 ~rate_mbps:rate ~seed)
              with
              Config.miss_send_len = len;
            }
        in
        [
          string_of_int len;
          Report.fmt_mbps r.Experiment.ctrl_load_up_mbps;
          Report.fmt_pct r.Experiment.controller_cpu_pct;
          Report.fmt_ms r.Experiment.setup_delay.Experiment.mean;
        ])
      lengths
  in
  Report.print_table
    ~header:
      [ "miss_send_len (B)"; "load up (Mbps)"; "controller CPU (%)"; "setup (ms)" ]
    ~rows

(* ---- Release strategy ---- *)

let release_strategy ?(rate = 60.0) ?(seed = 1) () =
  Printf.printf
    "\n== Ablation: buffered-packet release strategy (Exp-A, buffer-256, %.0f Mbps) ==\n\
     The paper's controller answers with a FLOW_MOD + PACKET_OUT pair;\n\
     OpenFlow also allows the FLOW_MOD itself to name the buffer.\n\n"
    rate;
  let run strategy =
    run_config
      {
        (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
           ~rate_mbps:rate ~seed)
        with
        Config.release_strategy = strategy;
      }
  in
  let pair = run `Pair and fmr = run `Flow_mod_release in
  let row label (r : Experiment.result) =
    [
      label;
      string_of_int r.Experiment.ctrl_msgs_down;
      Report.fmt_mbps r.Experiment.ctrl_load_down_mbps;
      Report.fmt_ms r.Experiment.setup_delay.Experiment.mean;
      string_of_int r.Experiment.packets_out;
    ]
  in
  Report.print_table
    ~header:
      [ "release strategy"; "msgs to switch"; "load down (Mbps)"; "setup (ms)";
        "delivered" ]
    ~rows:
      [ row "flow_mod + packet_out (paper)" pair;
        row "flow_mod carrying buffer_id" fmr ]

(* ---- Resend timeout under control-channel loss ---- *)

let resend_timeout_under_loss ?(loss_rates = [ 0.0; 0.01; 0.05; 0.10 ])
    ?(timeouts = [ 0.01; 0.05; 0.2 ]) ?(seed = 1) () =
  Printf.printf
    "\n== Ablation: re-request timeout under control-channel loss ==\n\
     Exp-A at 40 Mbps, 500 flows. A lost PACKET_IN or PACKET_OUT leaves\n\
     the buffered packet stranded; the flow-granularity timeout\n\
     (Algorithm 1, lines 12-13) re-requests it. Packet granularity has\n\
     no such recovery: stranded packets age out of the buffer.\n\n";
  let base ~mechanism ~loss =
    {
      (Config.exp_a ~mechanism ~buffer_capacity:256 ~rate_mbps:40.0 ~seed) with
      Config.workload = Config.Exp_a { n_flows = 500 };
      faults = { Sdn_sim.Faults.none with Sdn_sim.Faults.loss_rate = loss };
    }
  in
  let rows =
    List.concat_map
      (fun loss ->
        let pkt = run_config (base ~mechanism:Config.Packet_granularity ~loss) in
        let pkt_row =
          [
            Printf.sprintf "%.0f%%" (loss *. 100.0);
            "packet-granularity"; "-";
            string_of_int pkt.Experiment.ctrl_msgs_lost;
            string_of_int pkt.Experiment.pkt_in_resends;
            Printf.sprintf "%.1f%%"
              (float_of_int pkt.Experiment.packets_out
              /. float_of_int pkt.Experiment.packets_in
              *. 100.0);
          ]
        in
        let flow_rows =
          List.map
            (fun timeout ->
              let r =
                run_config
                  {
                    (base ~mechanism:Config.Flow_granularity ~loss) with
                    Config.resend_timeout = timeout;
                  }
              in
              [
                Printf.sprintf "%.0f%%" (loss *. 100.0);
                "flow-granularity";
                Printf.sprintf "%.0f ms" (timeout *. 1000.0);
                string_of_int r.Experiment.ctrl_msgs_lost;
                string_of_int r.Experiment.pkt_in_resends;
                Printf.sprintf "%.1f%%"
                  (float_of_int r.Experiment.packets_out
                  /. float_of_int r.Experiment.packets_in
                  *. 100.0);
              ])
            timeouts
        in
        pkt_row :: flow_rows)
      loss_rates
  in
  Report.print_table
    ~header:
      [ "loss"; "mechanism"; "timeout"; "msgs lost"; "re-requests"; "delivered" ]
    ~rows

(* ---- Rule installation latency ---- *)

let rule_install_latency ?(latencies = [ 0.2e-3; 2e-3; 8e-3 ]) ?(rate = 95.0)
    ?(seed = 1) () =
  Printf.printf
    "\n== Ablation: datapath rule-programming latency (Exp-B, %.0f Mbps) ==\n\
     Slow rule installation keeps packets missing long after the\n\
     controller has answered — the regime in which the paper's Fig. 12(b)\n\
     forwarding-delay gap opens up (EXPERIMENTS.md, deviation D4).\n\n"
    rate;
  let rows =
    List.concat_map
      (fun latency ->
        List.map
          (fun mechanism ->
            let base = Config.exp_b ~mechanism ~rate_mbps:rate ~seed in
            let r =
              run_config
                {
                  base with
                  Config.switch_costs =
                    {
                      base.Config.switch_costs with
                      Sdn_switch.Costs.flow_mod_apply_latency = latency;
                    };
                }
            in
            [
              Printf.sprintf "%.1f ms" (latency *. 1000.0);
              Config.label base;
              string_of_int r.Experiment.pkt_ins;
              Report.fmt_ms r.Experiment.forwarding_delay.Experiment.mean;
              Printf.sprintf "%.1f" r.Experiment.buffer_mean_in_use;
            ])
          [ Config.Packet_granularity; Config.Flow_granularity ])
      latencies
  in
  Report.print_table
    ~header:
      [ "install latency"; "mechanism"; "requests"; "fwd delay (ms)";
        "buffer units (mean)" ]
    ~rows

(* ---- Proactive provisioning baseline ---- *)

let proactive_baseline ?(rate = 60.0) ?(seed = 1) () =
  Printf.printf
    "\n== Baseline: reactive flow setup vs proactive provisioning (%.0f Mbps) ==\n\
     Proactively installing every rule before traffic starts removes the\n\
     request path entirely — but requires knowing all flows up front and\n\
     holding them in the table. The paper's mechanisms cheapen the\n\
     reactive path instead.\n\n"
    rate;
  let n_flows = 400 in
  let reactive mechanism buffer =
    let config =
      {
        (Config.exp_a ~mechanism ~buffer_capacity:buffer ~rate_mbps:rate ~seed) with
        Config.workload = Config.Exp_a { n_flows };
      }
    in
    (Config.label config, Experiment.run config)
  in
  let proactive () =
    let config =
      {
        (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
           ~rate_mbps:rate ~seed)
        with
        Config.workload = Config.Exp_a { n_flows };
      }
    in
    let scenario = Scenario.build config in
    let engine = scenario.Scenario.engine in
    let addressing = Sdn_traffic.Addressing.default in
    let flow_mods =
      List.init n_flows (fun flow_id ->
          Sdn_openflow.Of_flow_mod.add ~idle_timeout:0
            ~match_:
              (Sdn_openflow.Of_match.of_flow_key
                 (Sdn_traffic.Addressing.flow_key addressing ~flow_id))
            ~actions:[ Sdn_openflow.Of_action.output 2 ]
            ())
    in
    Sdn_controller.Controller.install_proactive scenario.Scenario.controller
      flow_mods;
    (* Let the installations land before traffic starts. *)
    Sdn_sim.Engine.run ~until:0.04 engine;
    let injections =
      Sdn_traffic.Patterns.exp_a ~rng:scenario.Scenario.traffic_rng ~start:0.05
        ~n_flows ~rate_mbps:rate ~frame_size:1000 ()
    in
    let plan = Sdn_traffic.Pktgen.stats_of injections in
    Sdn_traffic.Pktgen.schedule engine
      ~inject:(fun ~in_port frame -> Scenario.inject scenario ~in_port frame)
      injections;
    Scenario.run_until_quiet ~min_time:plan.Sdn_traffic.Pktgen.last scenario;
    let counters = Sdn_switch.Switch.counters scenario.Scenario.switch in
    let window =
      Float.max 1e-9
        (Sdn_measure.Delay.last_egress_time scenario.Scenario.delay
        -. plan.Sdn_traffic.Pktgen.first)
    in
    ( "proactive (pre-installed)",
      counters.Sdn_switch.Switch.pkt_ins_sent,
      Sdn_measure.Capture.load_mbps scenario.Scenario.capture
        Sdn_measure.Capture.To_controller ~window,
      Sdn_sim.Stats.mean
        (Sdn_measure.Delay.flow_setup_delays scenario.Scenario.delay),
      Sdn_switch.Flow_table.length
        (Sdn_switch.Switch.flow_table scenario.Scenario.switch) )
  in
  let reactive_row (label, (r : Experiment.result)) =
    ( label,
      r.Experiment.pkt_ins,
      r.Experiment.ctrl_load_up_mbps,
      r.Experiment.setup_delay.Experiment.mean,
      n_flows )
  in
  let rows =
    [
      reactive_row (reactive Config.No_buffer 0);
      reactive_row (reactive Config.Packet_granularity 256);
      reactive_row (reactive Config.Flow_granularity 256);
      proactive ();
    ]
  in
  Report.print_table
    ~header:
      [ "provisioning"; "requests"; "ctrl load up (Mbps)"; "setup (ms)";
        "rules held" ]
    ~rows:
      (List.map
         (fun (label, reqs, load, setup, rules) ->
           [
             label; string_of_int reqs; Report.fmt_mbps load;
             Report.fmt_ms setup; string_of_int rules;
           ])
         rows)

let run_all () =
  buffer_sizing ();
  miss_send_len_sweep ();
  release_strategy ();
  resend_timeout_under_loss ();
  rule_install_latency ();
  proactive_baseline ()
