(* The paper's Section VII future work, built: egress scheduling
   combined with the ingress buffer mechanism.

   Run with:  dune exec examples/qos_scheduling.exe

   A bulk UDP transfer saturates the switch's 100 Mbps egress port
   while a low-rate interactive flow (small frames every 2 ms) shares
   it. Without scheduling (FIFO), interactive frames queue behind the
   bulk backlog; with strict priority or weighted DRR, the interactive
   class keeps millisecond-scale egress delays. The controller assigns
   classes by installing Enqueue actions (queue 1 = interactive) chosen
   by destination port. *)

open Sdn_sim
open Sdn_core
open Sdn_measure
open Sdn_traffic
module Egress_queue = Sdn_switch.Egress_queue

let interactive_port = 5001

let queues =
  [
    { Egress_queue.default_queue with Egress_queue.queue_id = 0l; priority = 0; weight = 1 };
    { Egress_queue.default_queue with Egress_queue.queue_id = 1l; priority = 10; weight = 8 };
  ]

let interactive_addressing =
  {
    Addressing.default with
    Addressing.src_ip_base = Sdn_net.Ip.make 10 9 0 0;
    src_port_base = 40000;
    dst_port = interactive_port;
  }

let shared_fifo_queue =
  (* A single 2048-frame class: every flow shares it, arrival order. *)
  [ { Egress_queue.default_queue with Egress_queue.capacity = 2048 } ]

(* [interactive_queue] is where the controller steers the interactive
   class for this leg: queue 1 when the port carries two queues, queue
   0 on the shared-FIFO leg (a controller must not install Enqueue
   actions naming queues the port does not carry — the switch now
   counts those as misroutes and drops them). *)
let run policy_name ~policy ~queues ~interactive_queue =
  let classify (ctx : Sdn_controller.App.context) =
    match ctx.Sdn_controller.App.flow_key with
    | Some key when key.Sdn_net.Flow_key.dst_port = interactive_port ->
        interactive_queue
    | Some _ | None -> 0l
  in
  let config =
    {
      Config.default with
      Config.mechanism = Config.Flow_granularity;
      rate_mbps = 97.0;
      egress_bandwidth_bps = Some 50e6;
      qos = Some { Config.classify; policy; queues };
    }
  in
  let scenario = Scenario.build config in
  let engine = scenario.Scenario.engine in
  let rng = scenario.Scenario.traffic_rng in
  (* Bulk: 2000 full-size frames at 97 Mbps through port 2. *)
  let bulk =
    Patterns.udp_burst ~rng ~start:0.05 ~n_packets:2000 ~rate_mbps:97.0
      ~frame_size:1000 ()
  in
  (* Interactive: one flow, a 200-byte frame every 2 ms (0.8 Mbps). *)
  let interactive =
    Patterns.udp_burst ~rng ~addressing:interactive_addressing ~start:0.05
      ~n_packets:80 ~rate_mbps:0.8 ~frame_size:200 ()
  in
  (* Scheduled back to back, so where a bulk and an interactive frame
     tie, the bulk frame goes first. *)
  List.iter
    (Pktgen.schedule engine ~inject:(fun ~in_port frame ->
         Scenario.inject scenario ~in_port frame))
    [ bulk; interactive ];
  Scenario.run_until_quiet ~min_time:0.3 scenario;
  let scheduler =
    Option.get (Sdn_switch.Switch.port_scheduler scenario.Scenario.switch ~port:2)
  in
  let interactive_delay =
    Stats.mean
      (Egress_queue.queue_delay_stats scheduler ~queue_id:interactive_queue)
  in
  let bulk_delay =
    Stats.mean (Egress_queue.queue_delay_stats scheduler ~queue_id:0l)
  in
  let drops = Egress_queue.total_dropped scheduler in
  ( policy_name,
    scenario.Scenario.host2_received,
    interactive_delay,
    bulk_delay,
    drops )

let () =
  Printf.printf
    "A 97 Mbps bulk transfer and a 0.8 Mbps interactive flow share a\n\
     50 Mbps egress uplink (flow-granularity ingress buffer on), so the\n\
     port runs at 2x oversubscription while the bulk burst lasts.\n\n";
  let results =
    [
      run "FIFO (one shared queue)" ~policy:Egress_queue.Fifo
        ~queues:shared_fifo_queue ~interactive_queue:0l;
      run "strict priority" ~policy:Egress_queue.Strict_priority ~queues
        ~interactive_queue:1l;
      run "DRR (interactive weight 8)"
        ~policy:(Egress_queue.Drr { quantum = 500 })
        ~queues ~interactive_queue:1l;
    ]
  in
  let rows =
    List.map
      (fun (name, delivered, interactive, bulk, drops) ->
        [
          name;
          string_of_int delivered;
          Report.fmt_ms interactive;
          Report.fmt_ms bulk;
          string_of_int drops;
        ])
      results
  in
  Report.print_table
    ~header:
      [
        "egress scheduling"; "frames delivered"; "interactive egress wait (ms)";
        "bulk egress wait (ms)"; "scheduler drops";
      ]
    ~rows;
  Printf.printf
    "\nWith a scheduler in front of the port, the interactive class no\n\
     longer waits behind the bulk backlog — the QoS guarantee the paper\n\
     proposes to combine with the ingress buffer mechanism.\n"
