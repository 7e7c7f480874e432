(* [trace]: the per-layer breakdown, measured from outside the program.

   Each sampled experiment is first run untraced through
   [Experiment.run] (the reference for the fidelity check, the GC
   counters and the tracing overhead), then rebuilt from public calls
   with a span at each layer boundary:

     Scenario.build -> traffic plan -> Pktgen.schedule (recording
     inject that calls Scenario.inject) -> Engine.step_batch loop
     stopping on Scenario.run_until_quiet's settle rule.

   The rebuilt run must dispatch exactly the events the untraced run
   did. Then each layer's public functions are replayed in isolation on
   the inputs the traced run recorded (ingress frames, the final flow
   entries, the PACKET_IN mix), giving per-call costs that deferred
   CPU-model closures hide from the spans. *)

open Sdn_core
open Sdn_sim
module Switch = Sdn_switch.Switch
module Flow_table = Sdn_switch.Flow_table
module Flow_entry = Sdn_switch.Flow_entry
module Delay = Sdn_measure.Delay
module Capture = Sdn_measure.Capture

(* ---- Spans of one step_batch, kept as a 2%-resolution histogram ---- *)

let hist_ratio = 1.02

let hist_add hist ns =
  let b = if ns <= 1.0 then 0 else int_of_float (log ns /. log hist_ratio) in
  let b = min (Array.length hist - 1) b in
  hist.(b) <- hist.(b) + 1

let hist_quantile hist q =
  let total = Array.fold_left ( + ) 0 hist in
  let target = q *. float_of_int total in
  let rec walk b acc =
    let acc = acc + hist.(b) in
    if float_of_int acc >= target || b = Array.length hist - 1 then
      hist_ratio ** float_of_int (b + 1)
    else walk (b + 1) acc
  in
  walk 0 0

(* ---- The traced re-composition ---- *)

type traced = {
  build_ns : float;
  plan_ns : float;
  dispatch_ns : float;
  batches : int;
  events : int;  (** dispatched, not counting the settle sentinels *)
  pending_peak : int;
  inject_ns : float;  (** summed over every Scenario.inject *)
  total_ns : float;
  frames : (float * int * Bytes.t) array;  (** ingress: time, port, frame *)
  scenario : Scenario.t;
}

(* [Scenario.run_until_quiet]'s default probing slice. *)
let grace = 2.0

let recompose hist config =
  let t0 = Util.now_ns () in
  let scenario = Scenario.build config in
  let t1 = Util.now_ns () in
  let engine = scenario.Scenario.engine in
  let injections = Workload.injections_of config scenario.Scenario.traffic_rng in
  let plan = Sdn_traffic.Pktgen.stats_of injections in
  let frames = ref [] and inject_ns = ref 0.0 in
  Sdn_traffic.Pktgen.schedule engine
    ~inject:(fun ~in_port frame ->
      frames := (Engine.now engine, in_port, frame) :: !frames;
      let a = Util.now_ns () in
      Scenario.inject scenario ~in_port frame;
      inject_ns := !inject_ns +. (Util.now_ns () -. a))
    injections;
  let t2 = Util.now_ns () in
  let pending_peak = ref (Engine.pending engine) in
  let dispatch = ref 0.0 and batches = ref 0 and sentinels = ref 0 in
  (* [Engine.run ~until:limit] as a step_batch loop: a sentinel event
     at [limit] ends the round after the batch at [limit] has run,
     exactly where [run] would stop. *)
  let rec settle rounds limit =
    let reached = ref false in
    ignore (Engine.schedule_at engine limit (fun () -> reached := true));
    incr sentinels;
    while not !reached do
      let a = Util.now_ns () in
      ignore (Engine.step_batch engine);
      let dt = Util.now_ns () -. a in
      dispatch := !dispatch +. dt;
      incr batches;
      hist_add hist dt;
      let live = Engine.pending engine - if !reached then 0 else 1 in
      if live > !pending_peak then pending_peak := live
    done;
    let counters = Switch.counters scenario.Scenario.switch in
    let settled =
      Delay.packets_out scenario.Scenario.delay + counters.Switch.frames_dropped
    in
    if rounds < 10 && settled < Delay.packets_in scenario.Scenario.delay then
      settle (rounds + 1) (limit +. grace)
  in
  settle 0 (Float.max plan.Sdn_traffic.Pktgen.last (Engine.now engine) +. grace);
  {
    build_ns = t1 -. t0;
    plan_ns = t2 -. t1;
    dispatch_ns = !dispatch;
    batches = !batches;
    events = Engine.processed engine - !sentinels;
    pending_peak = !pending_peak;
    inject_ns = !inject_ns;
    total_ns = Util.now_ns () -. t0;
    frames = Array.of_list (List.rev !frames);
    scenario;
  }

(* ---- Replays of each layer on the recorded inputs ---- *)

let buffered (config : Config.t) =
  config.Config.mechanism <> Config.No_buffer && config.Config.buffer_capacity > 0

(* The first frame of each flow: the PACKET_INs a reactive controller
   sees (later misses of a still-uninstalled flow are not counted). *)
let misses frames =
  let seen = Sdn_net.Flow_key.Table.create 1024 in
  List.filter
    (fun (_, _, frame) ->
      match Sdn_net.Packet.peek_flow_key frame with
      | Some key when not (Sdn_net.Flow_key.Table.mem seen key) ->
          Sdn_net.Flow_key.Table.add seen key ();
          true
      | Some _ | None -> false)
    (Array.to_list frames)
  |> Array.of_list

let pkt_in config i (_, in_port, frame) =
  let open Sdn_openflow in
  Of_codec.Packet_in
    (if buffered config then
       Of_packet_in.make ~buffer_id:(Int32.of_int i) ~in_port ~reason:Of_packet_in.No_match
         ~frame ~miss_send_len:(Some config.Config.miss_send_len)
     else
       Of_packet_in.make ~buffer_id:Of_wire.no_buffer ~in_port
         ~reason:Of_packet_in.No_match ~frame ~miss_send_len:None)

let message_mix config misses entries =
  let open Sdn_openflow in
  let outs =
    Array.mapi
      (fun i (_, in_port, frame) ->
        Of_codec.Packet_out
          (if buffered config then Of_packet_out.release ~buffer_id:(Int32.of_int i) ~out_port:2
           else Of_packet_out.full ~frame ~in_port ~out_port:2))
      misses
  in
  let mods =
    List.map
      (fun (e : Flow_entry.t) ->
        Of_codec.Flow_mod
          (Of_flow_mod.add ~priority:e.Flow_entry.priority
             ~idle_timeout:(int_of_float e.Flow_entry.idle_timeout)
             ~match_:e.Flow_entry.match_ ~actions:e.Flow_entry.actions ()))
      entries
  in
  Array.concat [ Array.mapi (pkt_in config) misses; outs; Array.of_list mods ]

let per_op n ns = ns /. float_of_int (max 1 n)

(* Replays run until 5 ms have elapsed; the reported value is a median
   over sampled experiments, so each single reading may be short. *)
let min_ns = 5e6

let replay_table config entries packets ~now =
  let n = List.length entries in
  let build () =
    let table = Flow_table.create ~capacity:config.Config.flow_table_capacity () in
    List.iter (fun e -> ignore (Flow_table.insert table e)) entries;
    table
  in
  let insert_ns = per_op n (Util.ns_per_call ~min_ns (fun () -> ignore (build ()))) in
  let table = build () in
  let lookup_ns =
    per_op (Array.length packets)
      (Util.ns_per_call ~min_ns (fun () ->
           Array.iter
             (fun (in_port, p) -> ignore (Flow_table.lookup table ~in_port p))
             packets))
  in
  let expire_us = Util.ns_per_call ~min_ns (fun () -> ignore (Flow_table.expire table ~now)) /. 1e3 in
  [ ("flow_table.insert_ns", insert_ns); ("flow_table.lookup_ns", lookup_ns);
    ("flow_table.expire_us", expire_us) ]

let replay_codec msgs =
  let open Sdn_openflow in
  let n = Array.length msgs in
  let encoded = Array.mapi (fun i m -> Of_codec.encode ~xid:(Int32.of_int i) m) msgs in
  let encode_ns =
    Util.ns_per_call ~min_ns (fun () ->
        Array.iteri (fun i m -> ignore (Of_codec.encode ~xid:(Int32.of_int i) m)) msgs)
  in
  let decode_ns =
    Util.ns_per_call ~min_ns (fun () -> Array.iter (fun b -> ignore (Of_codec.decode b)) encoded)
  in
  let words =
    Util.minor_words (fun () ->
        Array.iteri
          (fun i m -> ignore (Of_codec.decode (Of_codec.encode ~xid:(Int32.of_int i) m)))
          msgs)
  in
  [ ("codec.encode_ns", per_op n encode_ns); ("codec.decode_ns", per_op n decode_ns);
    ("codec.words_per_msg", per_op n words) ]

(* At most this many recorded frames feed the buffer replays. *)
let buffer_frames = 4096

let replay_buffers frames =
  let frames = Array.sub frames 0 (min buffer_frames (Array.length frames)) in
  let n = Array.length frames in
  let engine = Engine.create () in
  let pool =
    Sdn_switch.Packet_buffer.create engine ~capacity:256 ~expiry:1e9 ~reclaim_lag:0.0 ()
  in
  let packet_ns =
    Util.ns_per_call ~min_ns (fun () ->
        Array.iter
          (fun (_, _, frame) ->
            match Sdn_switch.Packet_buffer.alloc pool ~frame with
            | Some id ->
                ignore (Sdn_switch.Packet_buffer.take pool id);
                Engine.run engine
            | None -> ())
          frames)
  in
  let flow =
    Sdn_switch.Flow_buffer.create engine ~capacity:256 ~reclaim_lag:0.0 ~resend_timeout:1e9
      ~max_resends:0
      ~on_resend:(fun ~buffer_id:_ ~key:_ ~first_frame:_ -> ())
      ()
  in
  let keyed =
    Array.of_list
      (List.filter_map
         (fun (_, _, frame) ->
           Option.map (fun key -> (key, frame)) (Sdn_net.Packet.peek_flow_key frame))
         (Array.to_list frames))
  in
  let flow_ns =
    Util.ns_per_call ~min_ns (fun () ->
        Array.iter
          (fun (key, frame) ->
            match Sdn_switch.Flow_buffer.add flow ~key ~frame with
            | Sdn_switch.Flow_buffer.First id | Sdn_switch.Flow_buffer.Appended id ->
                ignore (Sdn_switch.Flow_buffer.take_all flow id);
                Engine.run engine
            | Sdn_switch.Flow_buffer.No_space -> ())
          keyed)
  in
  [ ("buffer.packet_alloc_take_ns", per_op n packet_ns);
    ("buffer.flow_add_take_ns", per_op (Array.length keyed) flow_ns) ]

let sink engine name =
  Link.create engine ~name ~bandwidth_bps:Calibration.data_link_bandwidth_bps
    ~propagation_s:Calibration.data_link_latency ~receiver:ignore ()

(* Run [engine] to quiescence (bounded, in case a component keeps a
   periodic timer) and return the host nanoseconds it took. *)
let drain engine ~last =
  let t0 = Util.now_ns () in
  Engine.run ~until:(last +. 10.0) engine;
  Util.now_ns () -. t0

let last_time timed = Array.fold_left (fun acc (t, _, _) -> Float.max acc t) 0.0 timed

let replay_controller (config : Config.t) misses =
  let engine = Engine.create () in
  let addressing = Sdn_traffic.Addressing.default in
  let app =
    Sdn_controller.Apps.forwarding
      ~hosts:
        [
          (Sdn_net.Ip.make 10 0 0 1, addressing.Sdn_traffic.Addressing.src_mac, 1);
          (Sdn_net.Ip.make 10 0 0 2, addressing.Sdn_traffic.Addressing.dst_mac, 2);
        ]
      ~idle_timeout:config.Config.rule_idle_timeout ()
  in
  let controller =
    Sdn_controller.Controller.create engine ~app ~costs:config.Config.controller_costs
      ~rng:(Rng.of_int config.Config.seed) ~release_strategy:config.Config.release_strategy ()
  in
  Sdn_controller.Controller.set_switch_link controller (sink engine "controller->sink");
  Array.iteri
    (fun i ((time, _, _) as miss) ->
      let bytes = Sdn_openflow.Of_codec.encode ~xid:(Int32.of_int i) (pkt_in config i miss) in
      ignore
        (Engine.schedule_at engine time (fun () ->
             Sdn_controller.Controller.handle_message controller bytes)))
    misses;
  per_op (Array.length misses) (drain engine ~last:(last_time misses))

let replay_switch (config : Config.t) entries frames =
  let engine = Engine.create () in
  let switch_config =
    {
      Switch.default_config with
      Switch.mechanism = (if buffered config then config.Config.mechanism else Switch.No_buffer);
      buffer_capacity = max 1 config.Config.buffer_capacity;
      miss_send_len = config.Config.miss_send_len;
      flow_table_capacity = config.Config.flow_table_capacity;
    }
  in
  let switch =
    Switch.create engine ~config:switch_config ~costs:config.Config.switch_costs
      ~rng:(Rng.of_int config.Config.seed) ()
  in
  Switch.set_port switch ~port:1 (sink engine "switch->host1");
  Switch.set_port switch ~port:2 (sink engine "switch->host2");
  Switch.set_controller_link switch (sink engine "switch->controller");
  List.iter (fun e -> ignore (Flow_table.insert (Switch.flow_table switch) e)) entries;
  Array.iter
    (fun (time, in_port, frame) ->
      ignore (Engine.schedule_at engine time (fun () -> Switch.handle_frame switch ~in_port frame)))
    frames;
  per_op (Array.length frames) (drain engine ~last:(last_time frames))

(* Schedule + dispatch on a fresh engine holding [pending] events,
   each of which reschedules itself: the queue stays at [pending]. *)
let replay_churn ~pending =
  let pending = max 1 pending in
  let engine = Engine.create () in
  let rng = Rng.of_int 7 in
  let rec fire () = ignore (Engine.schedule engine ~delay:(Rng.float rng 1e-3) fire) in
  for _ = 1 to pending do
    fire ()
  done;
  let target = max 100_000 (2 * pending) in
  let t0 = Util.now_ns () in
  let rec go k = if k < target then go (k + Engine.step_batch engine) in
  go 0;
  per_op (Engine.processed engine) (Util.now_ns () -. t0)

(* ---- One sampled experiment ---- *)

let trace_one hist config (r : Experiment.result) =
  let t = recompose hist config in
  let s = t.scenario in
  let switch = s.Scenario.switch in
  let table = Switch.flow_table switch in
  let entries = Flow_table.entries table in
  let frames = t.frames in
  let n_frames = Array.length frames in
  let packets =
    Array.of_list
      (List.filter_map
         (fun (_, in_port, frame) ->
           Result.to_option (Result.map (fun p -> (in_port, p)) (Sdn_net.Packet.decode frame)))
         (Array.to_list frames))
  in
  let misses = misses frames in
  let counted =
    let lookups = Flow_table.lookups table in
    let jobs =
      Cpu.jobs_completed (Switch.kernel_cpu switch)
      + Cpu.jobs_completed (Switch.userspace_cpu switch)
      + Cpu.jobs_completed (Sdn_controller.Controller.cpu s.Scenario.controller)
    in
    let capture = s.Scenario.capture in
    [
      ("scenario.build_us", t.build_ns /. 1e3);
      ("traffic.plan_ns_per_packet", per_op n_frames t.plan_ns);
      ("engine.dispatch_ns_per_event", per_op t.events t.dispatch_ns);
      ("engine.events_per_exp", float_of_int t.events);
      ("engine.events_per_batch", float_of_int t.events /. float_of_int (max 1 t.batches));
      ("engine.pending_peak", float_of_int t.pending_peak);
      ("link.inject_ns", per_op n_frames t.inject_ns);
      ("cpu.jobs_per_event", float_of_int jobs /. float_of_int (max 1 t.events));
      ("flow_table.lookups_per_exp", float_of_int lookups);
      ("flow_table.size_end", float_of_int (Flow_table.length table));
      ( "flow_table.microflow_hit_ratio",
        float_of_int (Flow_table.microflow_hits table) /. float_of_int (max 1 lookups) );
      ("flow_table.microflow_flushes", float_of_int (Flow_table.microflow_flushes table));
      ( "capture.control_msgs_per_exp",
        float_of_int
          (Capture.messages capture Capture.To_controller
          + Capture.messages capture Capture.To_switch) );
    ]
  in
  let decode =
    if n_frames = 0 then []
    else
      let decode_all () = Array.iter (fun (_, _, f) -> ignore (Sdn_net.Packet.decode f)) frames in
      [
        ("packet.decode_ns", per_op n_frames (Util.ns_per_call ~min_ns decode_all));
        ("packet.decode_words", per_op n_frames (Util.minor_words decode_all));
      ]
  in
  let now = Engine.now s.Scenario.engine in
  let tables = if entries = [] then [] else replay_table config entries packets ~now in
  let codec = replay_codec (message_mix config misses entries) in
  let buffers = if n_frames = 0 then [] else replay_buffers frames in
  let controller_ns = replay_controller config misses in
  let switch_ns = replay_switch config entries frames in
  let churn = replay_churn ~pending:t.pending_peak in
  (* Four disjoint parts of a batch — the switch's hit path, the
     controller's PACKET_IN handling, the switch installing the rules
     it was sent, and host injection — each priced by its replay and
     multiplied by how often the traced run did it. *)
  let insert_ns = Option.value ~default:0.0 (List.assoc_opt "flow_table.insert_ns" tables) in
  let attributed =
    ((switch_ns *. float_of_int n_frames)
    +. (controller_ns *. float_of_int (Array.length misses))
    +. (insert_ns *. float_of_int (List.length entries))
    +. t.inject_ns)
    /. Float.max 1.0 t.dispatch_ns *. 100.0
  in
  ( t,
    counted @ decode @ tables @ codec @ buffers
    @ [
        ("controller.ns_per_pkt_in", controller_ns);
        ("switch.hit_ns_per_frame", switch_ns);
        ("engine.churn_ns_per_event", churn);
        ("layers.attributed_pct", attributed);
      ],
    t.events = r.Experiment.sim_events )

(* ---- The trace pass ---- *)

let run (w : Workload.t) ~scale ~seed ~seconds =
  let min_passes = match scale with Workload.Full -> w.Workload.trace_passes | Workload.Smoke -> 1 in
  let hist = Array.make 1600 0 in
  let samples = Hashtbl.create 64 in
  let add name v = Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name)) in
  let attempted = ref 0 and failed = ref 0 in
  let untraced = ref [] and traced_ns = ref [] and digest_set = ref [] in
  let minor = ref 0.0 and promoted = ref 0.0 and majors = ref 0 and events = ref 0 in
  let t_start = Util.now_ns () in
  let p = ref 0 in
  while !p < min_passes || Util.now_ns () -. t_start < seconds *. 1e9 do
    Array.iteri
      (fun j config ->
        if j mod w.Workload.trace_stride = !p mod w.Workload.trace_stride then begin
          incr attempted;
          let mi0, pr0, _ = Gc.counters () and mj0 = (Gc.quick_stat ()).Gc.major_collections in
          let t0 = Util.now_ns () in
          match Experiment.run config with
          | exception e ->
              incr failed;
              Printf.eprintf "%s: experiment raised %s\n%!" w.Workload.name (Printexc.to_string e)
          | r -> (
              let dt = Util.now_ns () -. t0 in
              let mi1, pr1, _ = Gc.counters () and mj1 = (Gc.quick_stat ()).Gc.major_collections in
              minor := !minor +. (mi1 -. mi0);
              promoted := !promoted +. (pr1 -. pr0);
              majors := !majors + (mj1 - mj0);
              events := !events + r.Experiment.sim_events;
              untraced := (config, r, dt) :: !untraced;
              if !p = 0 then digest_set := r :: !digest_set;
              match trace_one hist config r with
              | exception e ->
                  incr failed;
                  Printf.eprintf "%s: traced re-run raised %s\n%!" w.Workload.name
                    (Printexc.to_string e)
              | t, values, faithful ->
                  traced_ns := t.total_ns :: !traced_ns;
                  List.iter (fun (k, v) -> add k v) values;
                  if not faithful then begin
                    incr failed;
                    Printf.eprintf
                      "%s: fidelity: traced run dispatched %d events, Experiment.run %d\n%!"
                      w.Workload.name t.events r.Experiment.sim_events
                  end)
        end)
      (w.Workload.pass scale ~seed !p);
    incr p
  done;
  let untraced = List.rev !untraced in
  let n = List.length untraced in
  let per_event x = x /. float_of_int (max 1 !events) in
  (* Parallel speedup on a prefix of the sample worth about two
     seconds of sequential work, both widths timed back to back. *)
  let speedup =
    let rec prefix acc total = function
      | [] -> List.rev acc
      | ((_, _, dt) as x) :: rest ->
          if total >= 2e9 && List.length acc >= 2 then List.rev acc
          else prefix (x :: acc) (total +. dt) rest
    in
    let chosen = prefix [] 0.0 untraced in
    let configs = Array.of_list (List.map (fun (c, _, _) -> c) chosen) in
    let timed jobs =
      let t0 = Util.now_ns () in
      let results = Exec.run_experiments ~jobs configs in
      let dt = Util.now_ns () -. t0 in
      List.iteri
        (fun i (_, r, _) ->
          if Experiment.diff_result r results.(i) <> [] then begin
            incr failed;
            Printf.eprintf "%s: Exec.run_experiments ~jobs:%d result %d differs\n%!"
              w.Workload.name jobs i
          end)
        chosen;
      dt
    in
    let t1 = timed 1 in
    t1 /. timed (Domain.recommended_domain_count ())
  in
  let metrics =
    if n = 0 then []
    else
      let medians =
        Hashtbl.fold (fun k vs acc -> (k, Util.median vs) :: acc) samples []
      in
      let untraced_ns = List.map (fun (_, _, dt) -> dt) untraced in
      medians
      @ [
          ("engine.batch_us_p99", hist_quantile hist 0.99 /. 1e3);
          ( "trace.overhead_pct",
            ((Util.median !traced_ns /. Util.median untraced_ns) -. 1.0) *. 100.0 );
          ("gc.minor_words_per_event", per_event !minor);
          ("gc.promoted_words_per_event", per_event !promoted);
          ("gc.major_collections", float_of_int !majors /. float_of_int n);
          ("exec.speedup_jobs2", speedup);
        ]
  in
  let order (m : Metric.t) = List.assoc_opt m.Metric.name metrics |> Option.map (fun v -> (m.Metric.name, v)) in
  {
    Outcome.workload = w.Workload.name;
    mode = "trace";
    seed;
    scale = Workload.scale_name scale;
    attempted = !attempted;
    failed = !failed;
    sim_digest = Outcome.digest_of_results (List.rev !digest_set);
    metrics = List.filter_map order (Outcome.expected "trace");
    notes =
      [
        ("sampled_experiments", string_of_int n);
        ("passes", string_of_int !p);
        ("batches", string_of_int (Array.fold_left ( + ) 0 hist));
      ];
  }
