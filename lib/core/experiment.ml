open Sdn_sim
open Sdn_measure
open Sdn_traffic

type summary = {
  count : int;
  mean : float;
  sd : float;
  min : float;
  max : float;
}

let summary_of_stats stats =
  {
    count = Stats.count stats;
    mean = Stats.mean stats;
    sd = Stats.stddev stats;
    min = (if Stats.count stats = 0 then 0.0 else Stats.min stats);
    max = (if Stats.count stats = 0 then 0.0 else Stats.max stats);
  }

type result = {
  config : Config.t;
  send_window : float;
  observe_window : float;
  ctrl_load_up_mbps : float;
  ctrl_load_down_mbps : float;
  ctrl_msgs_up : int;
  ctrl_msgs_down : int;
  pkt_ins : int;
  pkt_in_resends : int;
  full_packet_fallbacks : int;
  ctrl_msgs_lost : int;
  controller_cpu_pct : float;
  switch_cpu_pct : float;
  setup_delay : summary;
  controller_delay : summary;
  switch_delay : summary;
  forwarding_delay : summary;
  buffer_mean_in_use : float;
  buffer_max_in_use : int;
  (* Shared-buffer policy layer (empty/zero — and unprinted — when no
     policy is configured, keeping default runs byte-identical). *)
  buf_policy : string option;
  pool_classes : Sdn_switch.Buf_policy.class_stat list;
  egress_misrouted : int;
  flows_started : int;
  flows_completed : int;
  flows_recovered : int;
  flows_abandoned : int;
  recovery_delay : summary;
  recovery_delay_samples : float array;
  packets_in : int;
  packets_out : int;
  packets_dropped : int;
  (* Controller-session lifecycle (all zero when echo keepalive is
     disabled). *)
  outage_detections : int;
  outage_false_positives : int;
  session_downtime : float;
  session_recovery : summary;
  session_transitions : (float * string) list;
  standalone_frames : int;
  fail_secure_drops : int;
  chains_frozen : int;
  chains_resumed : int;
  chains_expired : int;
  controller_downs : int;
  controller_resyncs : int;
  microflow_hits : int;
  microflow_misses : int;
  (* Crash–restart fault injection (all zero/empty when the fault plan
     schedules no crashes). *)
  node_crashes : int;
  packets_lost_to_crash : int;
  crash_msgs_lost : int;
  crash_recovery : summary;
  reconcile_audits : int;
  reconcile_installs : int;
  overload_sheds : int;
  sim_events : int;
  crash_events : (float * string) list;
  check_violations : int;
  check_report : string option;
}

(* Injections start after the handshake has settled. *)
let traffic_start = 0.05

let injections_of (config : Config.t) rng =
  match config.Config.workload with
  | Config.Exp_a { n_flows } ->
      Patterns.exp_a ~rng ~start:traffic_start ~n_flows
        ~rate_mbps:config.Config.rate_mbps ~frame_size:config.Config.frame_size
        ()
  | Config.Exp_b { n_flows; packets_per_flow; concurrent } ->
      Patterns.exp_b ~rng ~start:traffic_start ~n_flows ~packets_per_flow
        ~concurrent ~rate_mbps:config.Config.rate_mbps
        ~frame_size:config.Config.frame_size ()
  | Config.Udp_burst { n_packets } ->
      Patterns.udp_burst ~rng ~start:traffic_start ~n_packets
        ~rate_mbps:config.Config.rate_mbps ~frame_size:config.Config.frame_size
        ()
  | Config.Poisson_flows { n_flows } ->
      Patterns.poisson_flows ~rng ~start:traffic_start ~n_flows
        ~rate_mbps:config.Config.rate_mbps ~frame_size:config.Config.frame_size
        ()
  | Config.Poisson_mix { n_packets; miss_fraction } ->
      (* The primer goes at traffic_start; the mix begins prime_lead
         later, once flow 0's rule is installed. *)
      Patterns.poisson_mix ~rng ~start:traffic_start ~n_packets ~miss_fraction
        ~rate_mbps:config.Config.rate_mbps ~frame_size:config.Config.frame_size
        ()

let run (config : Config.t) =
  let scenario = Scenario.build config in
  let engine = scenario.Scenario.engine in
  let injections = injections_of config scenario.Scenario.traffic_rng in
  let plan = Pktgen.stats_of injections in
  Pktgen.schedule engine
    ~inject:(fun ~in_port frame -> Scenario.inject scenario ~in_port frame)
    injections;
  Scenario.run_until_quiet ~min_time:plan.Pktgen.last scenario;
  let capture = scenario.Scenario.capture in
  let delay = scenario.Scenario.delay in
  let switch = scenario.Scenario.switch in
  let send_window = plan.Pktgen.last -. plan.Pktgen.first in
  let window_end =
    List.fold_left Float.max plan.Pktgen.last
      [
        Delay.last_egress_time delay;
        Option.value ~default:0.0 (Capture.last_time capture Capture.To_controller);
        Option.value ~default:0.0 (Capture.last_time capture Capture.To_switch);
      ]
  in
  let observe_window = Float.max 1e-9 (window_end -. plan.Pktgen.first) in
  let counters = Sdn_switch.Switch.counters switch in
  let session = Sdn_switch.Switch.session switch in
  let controller_counters =
    Sdn_controller.Controller.counters scenario.Scenario.controller
  in
  let controller_cpu =
    Cpu.busy_core_seconds (Sdn_controller.Controller.cpu scenario.Scenario.controller)
  in
  let switch_cpu = Sdn_switch.Switch.cpu_busy_core_seconds switch in
  let units = Sdn_switch.Switch.buffer_units switch in
  let flow_pool = Sdn_switch.Switch.flow_pool switch in
  let of_flow_pool f = match flow_pool with Some pool -> f pool | None -> 0 in
  let recovery_delays =
    match flow_pool with
    | Some pool -> Sdn_switch.Flow_buffer.recovery_delays pool
    | None -> Stats.create ()
  in
  let session_transitions =
    List.map
      (fun (time, state) -> (time, Sdn_switch.Session.state_to_string state))
      (Sdn_switch.Session.transitions session)
  in
  let injected_crash_events = Scenario.crash_events scenario in
  let crash_events =
    (* Injected crash/restart events merged chronologically with the
       controller's reconciliation outcomes. *)
    List.stable_sort
      (fun (ta, _) (tb, _) -> Float.compare ta tb)
      (injected_crash_events
      @ Sdn_controller.Controller.reconcile_events scenario.Scenario.controller)
  in
  let crash_recovery =
    (* Recovery time to steady state: from each injected crash to the
       first subsequent return of the switch session to Up (handshake
       replayed, buffered chains resumed, reconciliation under way). *)
    let stats = Stats.create () in
    let ups =
      List.filter_map
        (fun (time, state) ->
          if String.equal state "up" then Some time else None)
        session_transitions
    in
    let mentions_crash what =
      let needle = "crash" in
      let nl = String.length needle and wl = String.length what in
      let rec scan i =
        i + nl <= wl && (String.sub what i nl = needle || scan (i + 1))
      in
      scan 0
    in
    List.iter
      (fun (t0, what) ->
        if mentions_crash what then
          match List.find_opt (fun tu -> Float.compare tu t0 > 0) ups with
          | Some tu -> Stats.add stats (tu -. t0)
          | None -> ())
      injected_crash_events;
    summary_of_stats stats
  in
  {
    config;
    send_window;
    observe_window;
    ctrl_load_up_mbps = Capture.load_mbps capture Capture.To_controller ~window:observe_window;
    ctrl_load_down_mbps = Capture.load_mbps capture Capture.To_switch ~window:observe_window;
    ctrl_msgs_up = Capture.messages capture Capture.To_controller;
    ctrl_msgs_down = Capture.messages capture Capture.To_switch;
    pkt_ins = counters.Sdn_switch.Switch.pkt_ins_sent;
    pkt_in_resends = counters.Sdn_switch.Switch.pkt_in_resends;
    full_packet_fallbacks = counters.Sdn_switch.Switch.full_packet_fallbacks;
    ctrl_msgs_lost =
      Sdn_sim.Link.messages_lost scenario.Scenario.to_controller
      + Sdn_sim.Link.messages_lost scenario.Scenario.to_switch;
    controller_cpu_pct = controller_cpu /. observe_window *. 100.0;
    switch_cpu_pct = switch_cpu /. observe_window *. 100.0;
    setup_delay = summary_of_stats (Delay.flow_setup_delays delay);
    controller_delay = summary_of_stats (Delay.controller_delays delay);
    switch_delay = summary_of_stats (Delay.switch_delays delay);
    forwarding_delay = summary_of_stats (Delay.flow_forwarding_delays delay);
    buffer_mean_in_use =
      (match units with
      | Some u -> Sdn_switch.Buffer_units.mean_in_use u ~until:window_end
      | None -> 0.0);
    buffer_max_in_use =
      (match units with
      | Some u -> Sdn_switch.Buffer_units.max_in_use u
      | None -> 0);
    buf_policy =
      Option.map Sdn_switch.Buf_policy.kind_to_string
        config.Config.buf_policy;
    pool_classes =
      (match Sdn_switch.Switch.shared_pool switch with
      | Some pool -> Sdn_switch.Buf_policy.stats pool ~until:window_end
      | None -> []);
    egress_misrouted = Sdn_switch.Switch.egress_misrouted switch;
    flows_started = Delay.flows_started delay;
    flows_completed = Delay.flows_completed delay;
    flows_recovered = of_flow_pool Sdn_switch.Flow_buffer.recovered_flows;
    flows_abandoned = of_flow_pool Sdn_switch.Flow_buffer.abandoned_flows;
    recovery_delay = summary_of_stats recovery_delays;
    recovery_delay_samples = Stats.samples recovery_delays;
    packets_in = Delay.packets_in delay;
    packets_out = Delay.packets_out delay;
    packets_dropped = counters.Sdn_switch.Switch.frames_dropped;
    outage_detections = Sdn_switch.Session.downs session;
    outage_false_positives = Sdn_switch.Session.false_positives session;
    session_downtime = Sdn_switch.Session.total_downtime session;
    session_recovery =
      summary_of_stats (Sdn_switch.Session.recovery_times session);
    session_transitions;
    standalone_frames = counters.Sdn_switch.Switch.standalone_frames;
    fail_secure_drops = counters.Sdn_switch.Switch.fail_secure_drops;
    chains_frozen = of_flow_pool Sdn_switch.Flow_buffer.chains_frozen;
    chains_resumed = of_flow_pool Sdn_switch.Flow_buffer.chains_resumed;
    chains_expired = of_flow_pool Sdn_switch.Flow_buffer.expired_on_resume;
    controller_downs = controller_counters.Sdn_controller.Controller.switch_downs;
    controller_resyncs = controller_counters.Sdn_controller.Controller.resyncs;
    microflow_hits =
      Sdn_switch.Flow_table.microflow_hits (Sdn_switch.Switch.flow_table switch);
    microflow_misses =
      Sdn_switch.Flow_table.microflow_misses
        (Sdn_switch.Switch.flow_table switch);
    node_crashes =
      counters.Sdn_switch.Switch.crashes
      + controller_counters.Sdn_controller.Controller.crashes;
    packets_lost_to_crash =
      counters.Sdn_switch.Switch.crash_lost_frames
      + counters.Sdn_switch.Switch.crash_wiped_packets;
    crash_msgs_lost =
      counters.Sdn_switch.Switch.crash_lost_messages
      + controller_counters.Sdn_controller.Controller.crash_lost_messages;
    crash_recovery;
    reconcile_audits =
      controller_counters.Sdn_controller.Controller.reconcile_audits;
    reconcile_installs =
      controller_counters.Sdn_controller.Controller.reconcile_installs;
    overload_sheds = counters.Sdn_switch.Switch.overload_sheds;
    sim_events = Sdn_sim.Engine.processed scenario.Scenario.engine;
    crash_events;
    check_violations =
      (match scenario.Scenario.check with
      | Some check -> Sdn_check.Check.violation_count check
      | None -> 0);
    check_report =
      (match scenario.Scenario.check with
      | Some check when Sdn_check.Check.violation_count check > 0 ->
          Some (Sdn_check.Check.report check)
      | Some _ | None -> None);
  }

(* ---- Field-for-field comparison ----

   The parallel-equivalence replay check compares a parallel task's
   result against its sequential rerun. Floats are compared exactly
   (Float.compare, so NaN = NaN): the determinism contract is
   byte-identical output, not approximate agreement. [config] is
   excluded — it holds the same value by construction and may carry a
   closure (qos classify) that structural equality cannot inspect. *)

let float_eq a b = Float.compare a b = 0

let summary_eq a b =
  a.count = b.count && float_eq a.mean b.mean && float_eq a.sd b.sd
  && float_eq a.min b.min && float_eq a.max b.max

let float_array_eq a b =
  Array.length a = Array.length b && Array.for_all2 float_eq a b

let transitions_eq a b =
  List.equal
    (fun (ta, sa) (tb, sb) -> float_eq ta tb && String.equal sa sb)
    a b

let class_stat_eq (a : Sdn_switch.Buf_policy.class_stat)
    (b : Sdn_switch.Buf_policy.class_stat) =
  let open Sdn_switch.Buf_policy in
  String.equal a.class_name b.class_name
  && a.quota = b.quota && a.priority = b.priority
  && float_eq a.occupancy_mean b.occupancy_mean
  && a.occupancy_max = b.occupancy_max
  && a.threshold = b.threshold
  && float_eq a.alpha b.alpha
  && a.admitted = b.admitted && a.rejected = b.rejected

let diff_result a b =
  let mismatches = ref [] in
  let chk name equal = if not equal then mismatches := name :: !mismatches in
  chk "send_window" (float_eq a.send_window b.send_window);
  chk "observe_window" (float_eq a.observe_window b.observe_window);
  chk "ctrl_load_up_mbps" (float_eq a.ctrl_load_up_mbps b.ctrl_load_up_mbps);
  chk "ctrl_load_down_mbps"
    (float_eq a.ctrl_load_down_mbps b.ctrl_load_down_mbps);
  chk "ctrl_msgs_up" (a.ctrl_msgs_up = b.ctrl_msgs_up);
  chk "ctrl_msgs_down" (a.ctrl_msgs_down = b.ctrl_msgs_down);
  chk "pkt_ins" (a.pkt_ins = b.pkt_ins);
  chk "pkt_in_resends" (a.pkt_in_resends = b.pkt_in_resends);
  chk "full_packet_fallbacks" (a.full_packet_fallbacks = b.full_packet_fallbacks);
  chk "ctrl_msgs_lost" (a.ctrl_msgs_lost = b.ctrl_msgs_lost);
  chk "controller_cpu_pct" (float_eq a.controller_cpu_pct b.controller_cpu_pct);
  chk "switch_cpu_pct" (float_eq a.switch_cpu_pct b.switch_cpu_pct);
  chk "setup_delay" (summary_eq a.setup_delay b.setup_delay);
  chk "controller_delay" (summary_eq a.controller_delay b.controller_delay);
  chk "switch_delay" (summary_eq a.switch_delay b.switch_delay);
  chk "forwarding_delay" (summary_eq a.forwarding_delay b.forwarding_delay);
  chk "buffer_mean_in_use" (float_eq a.buffer_mean_in_use b.buffer_mean_in_use);
  chk "buffer_max_in_use" (a.buffer_max_in_use = b.buffer_max_in_use);
  chk "buf_policy" (Option.equal String.equal a.buf_policy b.buf_policy);
  chk "pool_classes" (List.equal class_stat_eq a.pool_classes b.pool_classes);
  chk "egress_misrouted" (a.egress_misrouted = b.egress_misrouted);
  chk "flows_started" (a.flows_started = b.flows_started);
  chk "flows_completed" (a.flows_completed = b.flows_completed);
  chk "flows_recovered" (a.flows_recovered = b.flows_recovered);
  chk "flows_abandoned" (a.flows_abandoned = b.flows_abandoned);
  chk "recovery_delay" (summary_eq a.recovery_delay b.recovery_delay);
  chk "recovery_delay_samples"
    (float_array_eq a.recovery_delay_samples b.recovery_delay_samples);
  chk "packets_in" (a.packets_in = b.packets_in);
  chk "packets_out" (a.packets_out = b.packets_out);
  chk "packets_dropped" (a.packets_dropped = b.packets_dropped);
  chk "outage_detections" (a.outage_detections = b.outage_detections);
  chk "outage_false_positives"
    (a.outage_false_positives = b.outage_false_positives);
  chk "session_downtime" (float_eq a.session_downtime b.session_downtime);
  chk "session_recovery" (summary_eq a.session_recovery b.session_recovery);
  chk "session_transitions"
    (transitions_eq a.session_transitions b.session_transitions);
  chk "standalone_frames" (a.standalone_frames = b.standalone_frames);
  chk "fail_secure_drops" (a.fail_secure_drops = b.fail_secure_drops);
  chk "chains_frozen" (a.chains_frozen = b.chains_frozen);
  chk "chains_resumed" (a.chains_resumed = b.chains_resumed);
  chk "chains_expired" (a.chains_expired = b.chains_expired);
  chk "controller_downs" (a.controller_downs = b.controller_downs);
  chk "controller_resyncs" (a.controller_resyncs = b.controller_resyncs);
  chk "microflow_hits" (a.microflow_hits = b.microflow_hits);
  chk "microflow_misses" (a.microflow_misses = b.microflow_misses);
  chk "node_crashes" (a.node_crashes = b.node_crashes);
  chk "packets_lost_to_crash"
    (a.packets_lost_to_crash = b.packets_lost_to_crash);
  chk "crash_msgs_lost" (a.crash_msgs_lost = b.crash_msgs_lost);
  chk "crash_recovery" (summary_eq a.crash_recovery b.crash_recovery);
  chk "reconcile_audits" (a.reconcile_audits = b.reconcile_audits);
  chk "reconcile_installs" (a.reconcile_installs = b.reconcile_installs);
  chk "overload_sheds" (a.overload_sheds = b.overload_sheds);
  chk "sim_events" (a.sim_events = b.sim_events);
  chk "crash_events" (transitions_eq a.crash_events b.crash_events);
  chk "check_violations" (a.check_violations = b.check_violations);
  chk "check_report"
    (Option.equal String.equal a.check_report b.check_report);
  List.rev !mismatches

let equal_result a b = diff_result a b = []

let pp_summary_ms fmt s =
  Format.fprintf fmt "mean=%.3fms sd=%.3fms max=%.3fms (n=%d)" (s.mean *. 1e3)
    (s.sd *. 1e3) (s.max *. 1e3) s.count

let pp_result fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "configuration        : %s, %.0f Mbps, seed %d@,"
    (Config.label r.config) r.config.Config.rate_mbps r.config.Config.seed;
  Format.fprintf fmt "windows              : send %.3fs, observe %.3fs@,"
    r.send_window r.observe_window;
  Format.fprintf fmt "control load up/down : %.3f / %.3f Mbps (%d / %d msgs)@,"
    r.ctrl_load_up_mbps r.ctrl_load_down_mbps r.ctrl_msgs_up r.ctrl_msgs_down;
  Format.fprintf fmt "packet_ins           : %d (+%d resends, %d full-packet fallbacks)@,"
    r.pkt_ins r.pkt_in_resends r.full_packet_fallbacks;
  Format.fprintf fmt "controller / switch CPU : %.1f%% / %.1f%%@,"
    r.controller_cpu_pct r.switch_cpu_pct;
  Format.fprintf fmt "flow setup delay     : %a@," pp_summary_ms r.setup_delay;
  Format.fprintf fmt "controller delay     : %a@," pp_summary_ms r.controller_delay;
  Format.fprintf fmt "switch delay         : %a@," pp_summary_ms r.switch_delay;
  if r.forwarding_delay.count > 0 then
    Format.fprintf fmt "flow forwarding delay: %a@," pp_summary_ms
      r.forwarding_delay;
  Format.fprintf fmt "buffer units         : mean %.1f, max %d@,"
    r.buffer_mean_in_use r.buffer_max_in_use;
  (* Printed only under a configured sharing policy, so default-policy
     runs stay byte-identical to the pre-policy goldens. *)
  (match r.buf_policy with
  | Some policy ->
      Format.fprintf fmt "buffer policy        : %s@," policy;
      List.iter
        (fun s ->
          Format.fprintf fmt "  %a@," Sdn_switch.Buf_policy.pp_class_stat s)
        r.pool_classes
  | None -> ());
  if r.egress_misrouted > 0 then
    Format.fprintf fmt "egress misroutes     : %d frame(s) to unknown queues@,"
      r.egress_misrouted;
  Format.fprintf fmt "flows                : %d started, %d completed@,"
    r.flows_started r.flows_completed;
  if r.flows_recovered > 0 || r.flows_abandoned > 0 then begin
    Format.fprintf fmt "recovery             : %d recovered, %d abandoned@,"
      r.flows_recovered r.flows_abandoned;
    if r.recovery_delay.count > 0 then
      Format.fprintf fmt "time to recovery     : %a@," pp_summary_ms
        r.recovery_delay
  end;
  if r.outage_detections > 0 || r.outage_false_positives > 0 then begin
    Format.fprintf fmt
      "control session      : %d outage(s) detected, %d false positive(s), \
       downtime %.1fms@,"
      r.outage_detections r.outage_false_positives
      (r.session_downtime *. 1e3);
    if r.session_recovery.count > 0 then
      Format.fprintf fmt "session recovery     : %a@," pp_summary_ms
        r.session_recovery;
    Format.fprintf fmt "session timeline     : %s@,"
      (Report.timeline r.session_transitions);
    if r.standalone_frames > 0 then
      Format.fprintf fmt "standalone forwarding: %d frame(s)@,"
        r.standalone_frames;
    if r.fail_secure_drops > 0 then
      Format.fprintf fmt "fail-secure drops    : %d frame(s)@,"
        r.fail_secure_drops;
    if r.chains_frozen > 0 then
      Format.fprintf fmt
        "frozen chains        : %d frozen, %d resumed, %d expired@,"
        r.chains_frozen r.chains_resumed r.chains_expired;
    Format.fprintf fmt "controller view      : %d down(s), %d resync(s)@,"
      r.controller_downs r.controller_resyncs
  end;
  if r.microflow_hits > 0 || r.microflow_misses > 0 then
    Format.fprintf fmt "microflow cache      : %d hit(s), %d miss(es)@,"
      r.microflow_hits r.microflow_misses;
  if r.overload_sheds > 0 then
    Format.fprintf fmt "overload guard       : %d new chain(s) shed@,"
      r.overload_sheds;
  if r.node_crashes > 0 then begin
    Format.fprintf fmt
      "node crashes         : %d, %d packet(s) lost, %d message(s) lost@,"
      r.node_crashes r.packets_lost_to_crash r.crash_msgs_lost;
    if r.crash_recovery.count > 0 then
      Format.fprintf fmt "crash recovery       : %a@," pp_summary_ms
        r.crash_recovery;
    if r.reconcile_audits > 0 then
      Format.fprintf fmt
        "flow reconciliation  : %d audit(s), %d re-install(s)@,"
        r.reconcile_audits r.reconcile_installs;
    Format.fprintf fmt "crash timeline       : %s@,"
      (Report.timeline ~events:r.crash_events r.session_transitions)
  end;
  Format.fprintf fmt "packets              : %d in, %d out, %d dropped"
    r.packets_in r.packets_out r.packets_dropped;
  (* Only violations change the report: a clean [--check] run prints
     byte-identically to an unchecked one, so the CI determinism
     comparisons still hold. *)
  (match r.check_report with
  | Some report ->
      Format.fprintf fmt "@,invariant violations  : %d@,%s" r.check_violations
        report
  | None -> ());
  Format.fprintf fmt "@]"
