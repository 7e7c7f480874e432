open Sdn_sim
open Sdn_net
open Sdn_measure

type t = {
  engine : Engine.t;
  switch : Sdn_switch.Switch.t;
  controller : Sdn_controller.Controller.t;
  check : Sdn_check.Check.t option;
  capture : Capture.t;
  delay : Delay.t;
  host1_link : Bytes.t Link.t;
  host2_link : Bytes.t Link.t;
  to_controller : Bytes.t Link.t;
  to_switch : Bytes.t Link.t;
  traffic_rng : Rng.t;
  mutable host1_received : int;
  mutable host2_received : int;
  (* Crash schedule interpretation: (time, description) per injected
     crash/restart, oldest first once reversed. *)
  mutable crash_events_rev : (float * string) list;
}

let host1_ip = Ip.make 10 0 0 1
let host2_ip = Ip.make 10 0 0 2

(* The switch configuration a run's config asks for: every switch knob
   is a config field. *)
let switch_config (config : Config.t) =
  {
    Sdn_switch.Switch.mechanism = config.Config.mechanism;
    buffer_capacity = config.Config.buffer_capacity;
    miss_send_len = config.Config.miss_send_len;
    resend_timeout = config.Config.resend_timeout;
    max_resends = config.Config.max_resends;
    flow_table_capacity = config.Config.flow_table_capacity;
    echo_interval = config.Config.echo_interval;
    echo_misses = config.Config.echo_misses;
    fail_mode = config.Config.fail_mode;
    overload_watermark = config.Config.overload_watermark;
    buf_policy = config.Config.buf_policy;
    (* Headroom for the non-static policies: twice the QoS queues'
       combined capacity, so complete sharing / DT have real slack to
       move between the ingress pool and the egress classes. Static
       ignores it (admission is per-class quota). *)
    shared_headroom =
      (match (config.Config.buf_policy, config.Config.qos) with
      | Some _, Some qos ->
          2
          * List.fold_left
              (fun acc (q : Sdn_switch.Egress_queue.queue_config) ->
                acc + q.Sdn_switch.Egress_queue.capacity)
              0 qos.Config.queues
      | _, _ -> 0);
  }

(* The re-request policy the controller pushes over the vendor
   extension to enable flow granularity, with the switch's own backoff
   shape; [None] for the other mechanisms. *)
let flow_buffer_backoff (config : Config.t) =
  match config.Config.mechanism with
  | Config.Flow_granularity ->
      Some
        {
          Sdn_openflow.Of_ext.timeout = config.Config.resend_timeout;
          multiplier = Sdn_switch.Session.backoff_multiplier;
          cap = Sdn_switch.Session.backoff_cap;
          max_resends = config.Config.max_resends;
        }
  | Config.No_buffer | Config.Packet_granularity -> None

let build (config : Config.t) =
  let engine = Engine.create () in
  let root_rng = Rng.of_int config.Config.seed in
  let traffic_rng = Rng.split root_rng in
  let switch_rng = Rng.split root_rng in
  let controller_rng = Rng.split root_rng in
  let capture = Capture.create ~encap_overhead:Calibration.encap_overhead_bytes () in
  let delay = Delay.create () in
  let check =
    if config.Config.check then Some (Sdn_check.Check.create ()) else None
  in
  let addressing = Sdn_traffic.Addressing.default in
  let switch =
    Sdn_switch.Switch.create engine ?check ~config:(switch_config config)
      ~costs:config.Config.switch_costs ~rng:switch_rng ()
  in
  let hosts =
    [
      (host1_ip, addressing.Sdn_traffic.Addressing.src_mac, 1);
      (host2_ip, addressing.Sdn_traffic.Addressing.dst_mac, 2);
    ]
  in
  let app =
    match config.Config.qos with
    | None ->
        Sdn_controller.Apps.forwarding ~hosts
          ~idle_timeout:config.Config.rule_idle_timeout ()
    | Some qos ->
        Sdn_controller.Apps.qos_forwarding ~hosts
          ~classify:qos.Config.classify
          ~idle_timeout:config.Config.rule_idle_timeout ()
  in
  let controller =
    Sdn_controller.Controller.create engine ~app
      ~costs:config.Config.controller_costs ~rng:controller_rng ?check
      ~release_strategy:config.Config.release_strategy
      ~echo_interval:config.Config.echo_interval
      ~echo_misses:config.Config.echo_misses ()
  in
  (* Each direction of the control channel gets its own plan (and RNG
     stream) so the schedules are independent but both derived from the
     run seed. *)
  let fault_spec = config.Config.faults in
  let faults_up = Faults.create ~spec:fault_spec ~rng:(Rng.split root_rng) () in
  let faults_down =
    Faults.create ~spec:fault_spec ~rng:(Rng.split root_rng) ()
  in
  let scenario = ref None in
  let get () = Option.get !scenario in
  (* Host ingress links: measurement sees the frame as it reaches the
     switch. *)
  let host1_link =
    Link.create engine ~name:"host1->switch"
      ~bandwidth_bps:Calibration.data_link_bandwidth_bps
      ~propagation_s:Calibration.data_link_latency
      ~receiver:(fun frame ->
        Delay.on_switch_ingress delay ~time:(Engine.now engine) frame;
        Sdn_switch.Switch.handle_frame switch ~in_port:1 frame)
      ()
  in
  let host2_link =
    Link.create engine ~name:"host2->switch"
      ~bandwidth_bps:Calibration.data_link_bandwidth_bps
      ~propagation_s:Calibration.data_link_latency
      ~receiver:(fun frame ->
        Delay.on_switch_ingress delay ~time:(Engine.now engine) frame;
        Sdn_switch.Switch.handle_frame switch ~in_port:2 frame)
      ()
  in
  (* Egress links: the capture hook sees the frame the instant the
     switch puts it on the wire, which is the paper's "packet leaving
     the switch". *)
  let to_host1 =
    Link.create engine ~name:"switch->host1"
      ~bandwidth_bps:Calibration.data_link_bandwidth_bps
      ~propagation_s:Calibration.data_link_latency
      ~capture:(fun ~time ~size:_ frame -> Delay.on_switch_egress delay ~time frame)
      ~receiver:(fun _frame ->
        let s = get () in
        s.host1_received <- s.host1_received + 1)
      ()
  in
  let to_host2 =
    Link.create engine ~name:"switch->host2"
      ~bandwidth_bps:
        (Option.value config.Config.egress_bandwidth_bps
           ~default:Calibration.data_link_bandwidth_bps)
      ~propagation_s:Calibration.data_link_latency
      ~capture:(fun ~time ~size:_ frame -> Delay.on_switch_egress delay ~time frame)
      ~receiver:(fun _frame ->
        let s = get () in
        s.host2_received <- s.host2_received + 1)
      ()
  in
  let to_controller =
    Link.create engine ~name:"switch->controller"
      ~bandwidth_bps:Calibration.control_link_bandwidth_bps
      ~propagation_s:Calibration.control_link_latency ~faults:faults_up
      ~capture:(fun ~time ~size:_ buf ->
        Capture.observe capture Capture.To_controller ~time buf;
        Delay.on_to_controller delay ~time buf)
      ~receiver:(fun buf -> Sdn_controller.Controller.handle_message controller buf)
      ()
  in
  let to_switch =
    Link.create engine ~name:"controller->switch"
      ~bandwidth_bps:Calibration.control_link_bandwidth_bps
      ~propagation_s:Calibration.control_link_latency ~faults:faults_down
      ~capture:(fun ~time ~size:_ buf ->
        Capture.observe capture Capture.To_switch ~time buf)
      ~receiver:(fun buf ->
        Delay.on_to_switch delay ~time:(Engine.now engine) buf;
        Sdn_switch.Switch.handle_of_message switch buf)
      ()
  in
  Sdn_switch.Switch.set_port switch ~port:1 to_host1;
  Sdn_switch.Switch.set_port switch ~port:2 to_host2;
  (match config.Config.qos with
  | Some qos ->
      Sdn_switch.Switch.set_port_scheduler switch ~port:1
        ~policy:qos.Config.policy ~queues:qos.Config.queues;
      Sdn_switch.Switch.set_port_scheduler switch ~port:2
        ~policy:qos.Config.policy ~queues:qos.Config.queues
  | None -> ());
  Sdn_switch.Switch.set_controller_link switch to_controller;
  Sdn_controller.Controller.set_switch_link controller to_switch;
  Sdn_switch.Switch.start switch;
  Sdn_controller.Controller.start controller
    ?enable_flow_buffer:(flow_buffer_backoff config)
    ~miss_send_len:config.Config.miss_send_len ();
  (* Crash schedule: the fault plan's crash entries are interpreted
     here, at the topology layer — the only place that knows both
     endpoints. Each crash kills one node (which force-downs its own
     session state) and delivers the TCP reset to the surviving peer;
     the restart re-enters the ordinary reconnect machinery, whose
     first answered probe triggers resync and, because the disconnect
     was a crash, the controller's flow-state reconciliation pass. *)
  let note_crash_event time what =
    let s = get () in
    s.crash_events_rev <- (time, what) :: s.crash_events_rev
  in
  List.iter
    (fun (c : Faults.crash) ->
      let mode_s = Faults.restart_mode_to_string c.Faults.mode in
      ignore
        (Engine.schedule_at engine c.Faults.at_s (fun () ->
             note_crash_event (Engine.now engine)
               (Printf.sprintf "switch crash (%s)" mode_s);
             Sdn_switch.Switch.crash switch ~mode:c.Faults.mode;
             Sdn_controller.Controller.note_switch_disconnect controller));
      ignore
        (Engine.schedule_at engine
           (c.Faults.at_s +. c.Faults.down_s)
           (fun () ->
             note_crash_event (Engine.now engine) "switch restart";
             Sdn_switch.Switch.restart switch)))
    (Faults.crashes_for fault_spec Faults.Switch_node);
  List.iter
    (fun (c : Faults.crash) ->
      let mode_s = Faults.restart_mode_to_string c.Faults.mode in
      ignore
        (Engine.schedule_at engine c.Faults.at_s (fun () ->
             note_crash_event (Engine.now engine)
               (Printf.sprintf "controller crash (%s)" mode_s);
             Sdn_controller.Controller.crash controller ~mode:c.Faults.mode;
             Sdn_switch.Session.note_disconnect
               (Sdn_switch.Switch.session switch)));
      ignore
        (Engine.schedule_at engine
           (c.Faults.at_s +. c.Faults.down_s)
           (fun () ->
             note_crash_event (Engine.now engine) "controller restart";
             Sdn_controller.Controller.restart controller ~mode:c.Faults.mode)))
    (Faults.crashes_for fault_spec Faults.Controller_node);
  let s =
    {
      engine;
      switch;
      controller;
      check;
      capture;
      delay;
      host1_link;
      host2_link;
      to_controller;
      to_switch;
      traffic_rng;
      host1_received = 0;
      host2_received = 0;
      crash_events_rev = [];
    }
  in
  scenario := Some s;
  s

let crash_events t = List.rev t.crash_events_rev

let inject t ~in_port frame =
  let link =
    match in_port with
    | 1 -> t.host1_link
    | 2 -> t.host2_link
    | p -> invalid_arg (Printf.sprintf "Scenario.inject: no host on port %d" p)
  in
  Link.send link ~size:(Bytes.length frame) frame

(* The probing slice of [run_until_quiet], seconds. *)
let grace = 2.0

let run_until_quiet ?(min_time = 0.0) t =
  (* Run in grace-sized slices until every injected packet has either
     egressed or been dropped (bounded rounds — the housekeeping sweep
     reschedules forever, so a plain drain would never terminate). *)
  let rec loop rounds limit =
    Engine.run ~until:limit t.engine;
    let counters = Sdn_switch.Switch.counters t.switch in
    let settled =
      Delay.packets_out t.delay + counters.Sdn_switch.Switch.frames_dropped
    in
    if rounds < 10 && settled < Delay.packets_in t.delay then
      loop (rounds + 1) (limit +. grace)
  in
  loop 0 (Float.max min_time (Engine.now t.engine) +. grace)
