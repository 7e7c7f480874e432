open Sdn_sim
open Sdn_net
open Sdn_measure

type t = {
  engine : Engine.t;
  switches : Sdn_switch.Switch.t array;
  controller : Sdn_controller.Controller.t;
  capture : Capture.t;
  delay : Delay.t;
  host1_link : Bytes.t Link.t;
  traffic_rng : Rng.t;
  mutable host2_received : int;
}

let host1_ip = Ip.make 10 0 0 1
let host2_ip = Ip.make 10 0 0 2

let data_link engine ~name ~receiver ?capture () =
  Link.create engine ~name ~bandwidth_bps:Calibration.data_link_bandwidth_bps
    ~propagation_s:Calibration.data_link_latency ?capture ~receiver ()

let build (config : Config.t) ~n_switches =
  if n_switches < 1 then invalid_arg "Chain.build: need at least one switch";
  let engine = Engine.create () in
  let root_rng = Rng.of_int config.Config.seed in
  let traffic_rng = Rng.split root_rng in
  let controller_rng = Rng.split root_rng in
  let capture = Capture.create ~encap_overhead:Calibration.encap_overhead_bytes () in
  let delay = Delay.create () in
  let addressing = Sdn_traffic.Addressing.default in
  let app =
    Sdn_controller.Apps.forwarding
      ~hosts:
        [
          (host1_ip, addressing.Sdn_traffic.Addressing.src_mac, 1);
          (host2_ip, addressing.Sdn_traffic.Addressing.dst_mac, 2);
        ]
      ~idle_timeout:config.Config.rule_idle_timeout ()
  in
  let controller =
    Sdn_controller.Controller.create engine ~app
      ~costs:config.Config.controller_costs ~rng:controller_rng
      ~release_strategy:config.Config.release_strategy ()
  in
  let switch_config = Scenario.switch_config config in
  let switches =
    Array.init n_switches (fun i ->
        Sdn_switch.Switch.create engine
          ~config:
            {
              switch_config with
              Sdn_switch.Switch.datapath_id = Int64.of_int (i + 1);
            }
          ~costs:config.Config.switch_costs ~rng:(Rng.split root_rng) ())
  in
  let chain = ref None in
  let get () = Option.get !chain in
  (* Host1 -> sw1: the end-to-end ingress tap lives here. *)
  let host1_link =
    data_link engine ~name:"host1->sw1"
      ~receiver:(fun frame ->
        Delay.on_switch_ingress delay ~time:(Engine.now engine) frame;
        Sdn_switch.Switch.handle_frame switches.(0) ~in_port:1 frame)
      ()
  in
  (* Inter-switch and host-facing data links. Port 1 egress goes
     upstream, port 2 egress goes downstream. *)
  for i = 0 to n_switches - 1 do
    let downstream_receiver =
      if i = n_switches - 1 then fun (_ : Bytes.t) ->
        let c = get () in
        c.host2_received <- c.host2_received + 1
      else fun frame -> Sdn_switch.Switch.handle_frame switches.(i + 1) ~in_port:1 frame
    in
    let downstream_capture =
      (* The end-to-end egress tap sits on the LAST switch only. *)
      if i = n_switches - 1 then
        Some (fun ~time ~size:_ frame -> Delay.on_switch_egress delay ~time frame)
      else None
    in
    let to_downstream =
      data_link engine
        ~name:(Printf.sprintf "sw%d->down" (i + 1))
        ?capture:downstream_capture ~receiver:downstream_receiver ()
    in
    let upstream_receiver =
      if i = 0 then fun (_ : Bytes.t) -> () (* frames back to host1 *)
      else fun frame -> Sdn_switch.Switch.handle_frame switches.(i - 1) ~in_port:2 frame
    in
    let to_upstream =
      data_link engine
        ~name:(Printf.sprintf "sw%d->up" (i + 1))
        ~receiver:upstream_receiver ()
    in
    Sdn_switch.Switch.set_port switches.(i) ~port:1 to_upstream;
    Sdn_switch.Switch.set_port switches.(i) ~port:2 to_downstream
  done;
  (* One control channel per switch, all observed by the same capture
     and delay tracker (switch xid blocks keep requests distinct). *)
  for i = 0 to n_switches - 1 do
    let to_controller =
      Link.create engine
        ~name:(Printf.sprintf "sw%d->controller" (i + 1))
        ~bandwidth_bps:Calibration.control_link_bandwidth_bps
        ~propagation_s:Calibration.control_link_latency
        ~capture:(fun ~time ~size:_ buf ->
          Capture.observe capture Capture.To_controller ~time buf;
          Delay.on_to_controller delay ~time buf)
        ~receiver:(fun buf ->
          Sdn_controller.Controller.handle_message_from controller ~switch:i buf)
        ()
    in
    let to_switch =
      Link.create engine
        ~name:(Printf.sprintf "controller->sw%d" (i + 1))
        ~bandwidth_bps:Calibration.control_link_bandwidth_bps
        ~propagation_s:Calibration.control_link_latency
        ~capture:(fun ~time ~size:_ buf ->
          Capture.observe capture Capture.To_switch ~time buf)
        ~receiver:(fun buf ->
          Delay.on_to_switch delay ~time:(Engine.now engine) buf;
          Sdn_switch.Switch.handle_of_message switches.(i) buf)
        ()
    in
    Sdn_switch.Switch.set_controller_link switches.(i) to_controller;
    Sdn_controller.Controller.add_switch controller ~switch:i to_switch;
    Sdn_switch.Switch.start switches.(i)
  done;
  let enable_flow_buffer = Scenario.flow_buffer_backoff config in
  for i = 0 to n_switches - 1 do
    Sdn_controller.Controller.start_switch controller ~switch:i
      ?enable_flow_buffer ~miss_send_len:config.Config.miss_send_len ()
  done;
  let c =
    {
      engine;
      switches;
      controller;
      capture;
      delay;
      host1_link;
      traffic_rng;
      host2_received = 0;
    }
  in
  chain := Some c;
  c

let inject t frame = Link.send t.host1_link ~size:(Bytes.length frame) frame

let run_until_quiet ?(grace = 2.0) ?(min_time = 0.0) t =
  let rec loop rounds limit =
    Engine.run ~until:limit t.engine;
    if rounds < 10 && t.host2_received < Delay.packets_in t.delay then
      loop (rounds + 1) (limit +. grace)
  in
  loop 0 (Float.max min_time (Engine.now t.engine) +. grace)

type result = {
  n_switches : int;
  setup_delay : Experiment.summary;
  ctrl_load_up_mbps : float;
  ctrl_load_down_mbps : float;
  pkt_ins : int;
  packets_in : int;
  packets_out : int;
}

let run (config : Config.t) ~n_switches =
  let chain = build config ~n_switches in
  let injections = Experiment.injections_of config chain.traffic_rng in
  let plan = Sdn_traffic.Pktgen.stats_of injections in
  Sdn_traffic.Pktgen.schedule chain.engine
    ~inject:(fun ~in_port:_ frame -> inject chain frame)
    injections;
  run_until_quiet ~min_time:plan.Sdn_traffic.Pktgen.last chain;
  let window_end =
    Float.max
      (Delay.last_egress_time chain.delay)
      (Option.value ~default:plan.Sdn_traffic.Pktgen.last
         (Capture.last_time chain.capture Capture.To_switch))
  in
  let window = Float.max 1e-9 (window_end -. plan.Sdn_traffic.Pktgen.first) in
  let pkt_ins =
    Array.fold_left
      (fun acc sw ->
        acc + (Sdn_switch.Switch.counters sw).Sdn_switch.Switch.pkt_ins_sent)
      0 chain.switches
  in
  {
    n_switches;
    setup_delay = Experiment.summary_of_stats (Delay.flow_setup_delays chain.delay);
    ctrl_load_up_mbps = Capture.load_mbps chain.capture Capture.To_controller ~window;
    ctrl_load_down_mbps = Capture.load_mbps chain.capture Capture.To_switch ~window;
    pkt_ins;
    packets_in = Delay.packets_in chain.delay;
    packets_out = chain.host2_received;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "chain{%d switches: setup mean=%.3fms, ctrl %.2f/%.2f Mbps, %d requests, \
     %d/%d delivered}"
    r.n_switches
    (r.setup_delay.Experiment.mean *. 1e3)
    r.ctrl_load_up_mbps r.ctrl_load_down_mbps r.pkt_ins r.packets_out
    r.packets_in
