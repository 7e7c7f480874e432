(* The chaos scenario: sweep control-channel loss rate against buffer
   mechanism and report how each mechanism survives an unreliable
   control channel — flow-completion ratio, packet delivery, re-request
   effort and time-to-recovery. Everything here is driven by the
   deterministic fault plans of {!Sdn_sim.Faults}, so two runs with the
   same seed produce byte-identical reports. *)

open Sdn_sim
open Sdn_measure

let default_loss_rates = [ 0.0; 0.05; 0.1; 0.2 ]

let default_mechanisms =
  [ Config.No_buffer; Config.Packet_granularity; Config.Flow_granularity ]

(* Multi-packet flows are the interesting workload under control loss:
   a lost buffer release strands the whole tail of a chain, which is
   exactly what the re-request mechanism must recover. *)
let default_base ~seed =
  Config.exp_b ~mechanism:Config.Flow_granularity ~rate_mbps:20.0 ~seed

let point_config ~base ~mechanism ~loss_rate =
  let faults = { base.Config.faults with Faults.loss_rate } in
  { (Config.with_mechanism base mechanism) with Config.faults }

(* Every sweep hands its grid, in report order, to the one funnel and
   keeps the results in that order. *)
let run_grid ~jobs configs =
  Array.to_list (Exec.run_experiments ~jobs (Array.of_list configs))

let run ?(loss_rates = default_loss_rates) ?(jobs = 1) ~base () =
  run_grid ~jobs
    (List.concat_map
       (fun mechanism ->
         List.map
           (fun loss_rate -> point_config ~base ~mechanism ~loss_rate)
           loss_rates)
       default_mechanisms)

(* Report rows read each point's axes back from the configuration it
   ran: only the [*_point_config] functions of this module write them. *)
let mechanism_name (r : Experiment.result) =
  Sdn_switch.Switch.mechanism_to_string r.Experiment.config.Config.mechanism

let fail_mode_name (r : Experiment.result) =
  Sdn_switch.Session.fail_mode_to_string r.Experiment.config.Config.fail_mode

let completion_ratio (r : Experiment.result) =
  if r.Experiment.flows_started = 0 then 1.0
  else
    float_of_int r.Experiment.flows_completed
    /. float_of_int r.Experiment.flows_started

let row (r : Experiment.result) =
  [
    mechanism_name r;
    Printf.sprintf "%.0f%%"
      (r.Experiment.config.Config.faults.Faults.loss_rate *. 100.0);
    Printf.sprintf "%d/%d" r.Experiment.flows_completed
      r.Experiment.flows_started;
    Printf.sprintf "%.1f%%" (completion_ratio r *. 100.0);
    Printf.sprintf "%d/%d" r.Experiment.packets_out r.Experiment.packets_in;
    string_of_int r.Experiment.pkt_in_resends;
    string_of_int r.Experiment.flows_recovered;
    string_of_int r.Experiment.flows_abandoned;
    (if r.Experiment.recovery_delay.Experiment.count = 0 then "-"
     else Report.fmt_ms r.Experiment.recovery_delay.Experiment.mean);
    (if r.Experiment.recovery_delay.Experiment.count = 0 then "-"
     else Report.fmt_ms r.Experiment.recovery_delay.Experiment.max);
  ]

let header =
  [
    "mechanism";
    "loss";
    "flows";
    "completion";
    "packets";
    "resends";
    "recovered";
    "abandoned";
    "t_rec mean (ms)";
    "t_rec max (ms)";
  ]

let recovery_histogram results =
  let stats = Stats.create () in
  List.iter
    (fun r -> Array.iter (Stats.add stats) r.Experiment.recovery_delay_samples)
    results;
  if Stats.count stats = 0 then None
  else
    Some
      (Report.histogram ~bins:8
         ~fmt:(fun s -> Printf.sprintf "%.1fms" (s *. 1e3))
         stats)

let report results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "chaos: control-channel loss sweep (deterministic fault plans)\n\n";
  Buffer.add_string buf (Report.table ~header ~rows:(List.map row results));
  Buffer.add_char buf '\n';
  (match recovery_histogram results with
  | None -> ()
  | Some h ->
      Buffer.add_string buf "\ntime-to-recovery histogram (all points)\n";
      Buffer.add_string buf h;
      Buffer.add_char buf '\n');
  Buffer.contents buf

let print_report results = print_string (report results)

(* ------------------------------------------------------------------ *)
(* Outage sweep: a scheduled control-channel blackout against the
   session lifecycle.  Where the loss sweep stresses the re-request
   machinery with i.i.d. drops, the outage sweep kills the channel
   outright for a window and measures what the echo keepalive detects,
   how each fail mode degrades, and what the reconnect resyncs. *)

let default_outage_durations = [ 0.05; 0.1 ]
let fail_modes = [ Config.Fail_secure; Config.Fail_standalone ]

(* Traffic starts at 0.05s; 0.15s puts the blackout mid-run for the
   default Exp-B workload so misses arrive while the session is Down. *)
let outage_start = 0.15

let default_outage_base ~seed =
  let base =
    Config.exp_b ~mechanism:Config.Flow_granularity ~rate_mbps:20.0 ~seed
  in
  { base with Config.echo_interval = 0.01; echo_misses = 2 }

let outage_point_config ~base ~mechanism ~fail_mode ~duration =
  let faults =
    {
      base.Config.faults with
      Faults.outages =
        [ { Faults.start_s = outage_start; stop_s = outage_start +. duration } ];
    }
  in
  { (Config.with_mechanism base mechanism) with Config.fail_mode; faults }

let run_outage ?(durations = default_outage_durations) ?(jobs = 1) ~base () =
  run_grid ~jobs
    (List.concat_map
       (fun mechanism ->
         List.concat_map
           (fun fail_mode ->
             List.map
               (fun duration ->
                 outage_point_config ~base ~mechanism ~fail_mode ~duration)
               durations)
           fail_modes)
       default_mechanisms)

(* The swept duration, read back as [stop - start] of the single
   window: not always bit-equal to the swept value, so every use
   prints it rounded to whole milliseconds. *)
let outage_ms (r : Experiment.result) =
  match r.Experiment.config.Config.faults.Faults.outages with
  | [ o ] -> (o.Faults.stop_s -. o.Faults.start_s) *. 1e3
  | _ -> invalid_arg "Chaos: an outage point runs exactly one outage window"

(* Time from the outage opening to the switch declaring Down; "-" when
   the keepalive never noticed (outage shorter than the miss budget). *)
let detect_latency (r : Experiment.result) =
  let rec first_down = function
    | [] -> None
    | (time, state) :: rest ->
        if state = "down" && time >= outage_start then Some (time -. outage_start)
        else first_down rest
  in
  first_down r.Experiment.session_transitions

let outage_row (r : Experiment.result) =
  [
    mechanism_name r;
    fail_mode_name r;
    Printf.sprintf "%.0fms" (outage_ms r);
    string_of_int r.Experiment.outage_detections;
    (match detect_latency r with
    | None -> "-"
    | Some d -> Report.fmt_ms d);
    Report.fmt_ms r.Experiment.session_downtime;
    Printf.sprintf "%.1f%%" (completion_ratio r *. 100.0);
    Printf.sprintf "%d/%d" r.Experiment.packets_out r.Experiment.packets_in;
    string_of_int r.Experiment.standalone_frames;
    string_of_int r.Experiment.fail_secure_drops;
    Printf.sprintf "%d/%d/%d" r.Experiment.chains_frozen
      r.Experiment.chains_resumed r.Experiment.chains_expired;
    string_of_int r.Experiment.controller_resyncs;
    string_of_int r.Experiment.outage_false_positives;
  ]

let outage_header =
  [
    "mechanism";
    "fail mode";
    "outage";
    "downs";
    "t_detect (ms)";
    "downtime (ms)";
    "completion";
    "packets";
    "standalone";
    "secure-drop";
    "froz/res/exp";
    "resyncs";
    "false+";
  ]

let outage_report results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "chaos: control-channel outage sweep (blackout at t=%.3fs, echo \
        keepalive driven)\n\n"
       outage_start);
  Buffer.add_string buf
    (Report.table ~header:outage_header ~rows:(List.map outage_row results));
  Buffer.add_char buf '\n';
  Buffer.add_string buf "\nsession timelines\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-18s %-15s %5.0fms  %s\n" (mechanism_name r)
           (fail_mode_name r) (outage_ms r)
           (Report.timeline r.Experiment.session_transitions)))
    results;
  Buffer.contents buf

let print_outage_report results = print_string (outage_report results)

(* ------------------------------------------------------------------ *)
(* Crash sweep: a scheduled node crash (switch or controller, warm or
   cold restart) mid-incast.  Where the outage sweep severs only the
   channel, the crash sweep kills the process — buffered chains are
   dropped or salvaged, tables survive or are wiped — and the report
   compares packets lost, recovery time to steady state and the
   reconciliation effort spent re-converging the flow state. *)

let default_crash_nodes = [ Faults.Switch_node; Faults.Controller_node ]
let default_crash_modes = [ Faults.Warm; Faults.Cold ]
let default_crash_downs = [ 0.05 ]

(* Same instant as the outage sweep: mid-run for the default Exp-B
   workload, so the crash lands while misses are in flight. *)
let crash_start = outage_start

(* The keepalive must be armed: it is what notices a dead peer and
   drives the reconnect machinery on both sides. *)
let default_crash_base = default_outage_base

let crash_point_config ~base ~mechanism ~node ~mode ~down =
  let faults =
    {
      base.Config.faults with
      Faults.crashes =
        [ { Faults.node; at_s = crash_start; down_s = down; mode } ];
    }
  in
  { (Config.with_mechanism base mechanism) with Config.faults }

let run_crash ?(modes = default_crash_modes) ?(downs = default_crash_downs)
    ?(jobs = 1) ~base () =
  run_grid ~jobs
    (List.concat_map
       (fun mechanism ->
         List.concat_map
           (fun node ->
             List.concat_map
               (fun mode ->
                 List.map
                   (fun down ->
                     crash_point_config ~base ~mechanism ~node ~mode ~down)
                   downs)
               modes)
           default_crash_nodes)
       default_mechanisms)

let the_crash (r : Experiment.result) =
  match r.Experiment.config.Config.faults.Faults.crashes with
  | [ c ] -> c
  | _ -> invalid_arg "Chaos: a crash point runs exactly one crash"

let crash_row (r : Experiment.result) =
  let c = the_crash r in
  [
    mechanism_name r;
    Faults.crash_node_to_string c.Faults.node;
    Faults.restart_mode_to_string c.Faults.mode;
    Printf.sprintf "%.0fms" (c.Faults.down_s *. 1e3);
    string_of_int r.Experiment.packets_lost_to_crash;
    string_of_int r.Experiment.crash_msgs_lost;
    (if r.Experiment.crash_recovery.Experiment.count = 0 then "-"
     else Report.fmt_ms r.Experiment.crash_recovery.Experiment.mean);
    Printf.sprintf "%d/%d" r.Experiment.reconcile_audits
      r.Experiment.reconcile_installs;
    string_of_int r.Experiment.overload_sheds;
    Printf.sprintf "%.1f%%" (completion_ratio r *. 100.0);
    Printf.sprintf "%d/%d" r.Experiment.packets_out r.Experiment.packets_in;
    Printf.sprintf "%d/%d/%d" r.Experiment.chains_frozen
      r.Experiment.chains_resumed r.Experiment.chains_expired;
  ]

let crash_header =
  [
    "mechanism";
    "node";
    "restart";
    "down";
    "pkts lost";
    "msgs lost";
    "t_recover (ms)";
    "audits/installs";
    "sheds";
    "completion";
    "packets";
    "froz/res/exp";
  ]

let crash_report results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "chaos: node crash-restart sweep (crash at t=%.3fs, stateful \
        recovery)\n\n"
       crash_start);
  Buffer.add_string buf
    (Report.table ~header:crash_header ~rows:(List.map crash_row results));
  Buffer.add_char buf '\n';
  Buffer.add_string buf "\ncrash timelines\n";
  List.iter
    (fun r ->
      let c = the_crash r in
      Buffer.add_string buf
        (Printf.sprintf "%-18s %-10s %-4s %5.0fms  %s\n" (mechanism_name r)
           (Faults.crash_node_to_string c.Faults.node)
           (Faults.restart_mode_to_string c.Faults.mode)
           (c.Faults.down_s *. 1e3)
           (Report.timeline ~events:r.Experiment.crash_events
              r.Experiment.session_transitions)))
    results;
  Buffer.contents buf

let print_crash_report results = print_string (crash_report results)

(* ------------------------------------------------------------------ *)
(* Buffer-policy sweep: the shared-buffer sharing disciplines of
   {!Sdn_switch.Buf_policy} swept against pool size under an incast
   burst.  An 80 Mbps burst slams into a 20 Mbps egress uplink, so both
   the ingress packet pool (misses waiting on rule installs) and the
   egress classes (backlog behind the slow wire) fight over the shared
   pool; the report compares delivery, drops and per-class occupancy /
   threshold behaviour across policies and pool sizes. *)

let default_policies =
  [
    Sdn_switch.Buf_policy.Static;
    Sdn_switch.Buf_policy.Sharing;
    Sdn_switch.Buf_policy.Dt { alpha = 2.0 };
    Sdn_switch.Buf_policy.Tdt { alpha0 = 2.0; target_delay = 2e-3 };
  ]

let default_policy_buffers = [ 16; 64; 256 ]

(* Flows spread deterministically over three strict-priority classes by
   source port; the tight capacities are what the sharing policies
   relieve (or refuse to). *)
let policy_classify (ctx : Sdn_controller.App.context) =
  match ctx.Sdn_controller.App.flow_key with
  | Some key -> Int32.of_int (key.Sdn_net.Flow_key.src_port mod 3)
  | None -> 0l

let default_policy_queues =
  [
    { Sdn_switch.Egress_queue.queue_id = 0l; priority = 0; weight = 1; capacity = 32 };
    { Sdn_switch.Egress_queue.queue_id = 1l; priority = 1; weight = 2; capacity = 32 };
    { Sdn_switch.Egress_queue.queue_id = 2l; priority = 2; weight = 4; capacity = 16 };
  ]

let default_policy_base ~seed =
  {
    Config.default with
    Config.mechanism = Config.Packet_granularity;
    buffer_capacity = 64;
    rate_mbps = 80.0;
    workload = Config.Udp_burst { n_packets = 400 };
    egress_bandwidth_bps = Some 20e6;
    qos =
      Some
        {
          Config.classify = policy_classify;
          policy = Sdn_switch.Egress_queue.Strict_priority;
          queues = default_policy_queues;
        };
    seed;
  }

let policy_point_config ~base ~policy ~buffer =
  { base with Config.buf_policy = Some policy; buffer_capacity = buffer }

let run_policy ?(policies = default_policies)
    ?(buffers = default_policy_buffers) ?(jobs = 1) ~base () =
  run_grid ~jobs
    (List.concat_map
       (fun policy ->
         List.map (fun buffer -> policy_point_config ~base ~policy ~buffer) buffers)
       policies)

let policy_name (r : Experiment.result) =
  match r.Experiment.config.Config.buf_policy with
  | Some kind -> Sdn_switch.Buf_policy.kind_to_string kind
  | None -> invalid_arg "Chaos: a policy point runs with a sharing policy"

let pool_rejected (r : Experiment.result) =
  List.fold_left
    (fun acc (s : Sdn_switch.Buf_policy.class_stat) ->
      acc + s.Sdn_switch.Buf_policy.rejected)
    0 r.Experiment.pool_classes

let policy_row (r : Experiment.result) =
  [
    policy_name r;
    string_of_int r.Experiment.config.Config.buffer_capacity;
    Printf.sprintf "%d/%d" r.Experiment.packets_out r.Experiment.packets_in;
    string_of_int r.Experiment.packets_dropped;
    string_of_int r.Experiment.full_packet_fallbacks;
    string_of_int r.Experiment.buffer_max_in_use;
    string_of_int (pool_rejected r);
    string_of_int r.Experiment.egress_misrouted;
    Report.fmt_ms r.Experiment.forwarding_delay.Experiment.mean;
  ]

let policy_header =
  [
    "policy";
    "buffer";
    "packets";
    "dropped";
    "fallbacks";
    "buf max";
    "pool-rej";
    "misrouted";
    "fwd mean (ms)";
  ]

let policy_report results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "chaos: shared-buffer policy sweep (incast burst, policy x pool size)\n\n";
  Buffer.add_string buf
    (Report.table ~header:policy_header ~rows:(List.map policy_row results));
  Buffer.add_char buf '\n';
  Buffer.add_string buf "\npool classes\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s (buffer %d)\n" (policy_name r)
           r.Experiment.config.Config.buffer_capacity);
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Format.asprintf "  %a\n" Sdn_switch.Buf_policy.pp_class_stat s))
        r.Experiment.pool_classes)
    results;
  Buffer.contents buf

let print_policy_report results = print_string (policy_report results)
