(* The one place a metric is declared. [list] prints these, [manifest]
   prints BENCHMARK.json from them (the smoke rule diffs the two), and
   [run]/[trace] refuse to finish without emitting every one. *)

type better = Lower | Higher

type kind =
  | End_to_end of float
      (** regression bound: the share of the parent's median by which
          the metric may worsen *)
  | Layer of string
      (** the end-to-end metric and workload it should move *)

type t = { name : string; unit_ : string; better : better; kind : kind; doc : string }

let e2e name unit_ better bound doc = { name; unit_; better; kind = End_to_end bound; doc }
let layer name unit_ better moves doc = { name; unit_; better; kind = Layer moves; doc }

(* Bounds come from the calibration table in README.md; [setup_s] has
   the largest. Timings are normalised to the reference kernel's
   nominal speed ([Util.reference_ms]). *)
let end_to_end =
  [
    e2e "exp_ms_best" "ms" Lower 0.2
      "host time of one Experiment.run: fastest pass per grid point, median over points";
    e2e "events_per_s" "1/s" Higher 0.2
      "sim_events per host second: best pass per grid point, median over points";
    e2e "wall_s" "s" Lower 0.2
      "host seconds for the workload's whole grid: fastest pass per point, summed";
    e2e "setup_s" "s" Lower 0.25
      "median host seconds of one set-up pass (Scenario.build, traffic plan, \
       Pktgen.schedule; engine not run)";
    e2e "peak_rss_mb" "MB" Lower 0.15
      "VmHWM of the process after the timed passes (covers off-heap Bigarrays)";
  ]

let per_layer =
  [
    layer "scenario.build_us" "us" Lower "setup_s @ crash_recovery"
      "span on Scenario.build";
    layer "traffic.plan_ns_per_packet" "ns" Lower "setup_s, peak_rss_mb @ hit_path"
      "span on the traffic plan and Pktgen.schedule, per injected packet";
    layer "engine.dispatch_ns_per_event" "ns" Lower "events_per_s @ all"
      "sum of Engine.step_batch spans / events";
    layer "engine.batch_us_p99" "us" Lower "wall_s @ table_scale"
      "99th percentile of one step_batch span";
    layer "engine.events_per_exp" "count" Lower "wall_s @ all"
      "Engine.processed per experiment";
    layer "engine.events_per_batch" "count" Higher "events_per_s @ hit_path"
      "events per step_batch";
    layer "engine.pending_peak" "count" Lower "peak_rss_mb, events_per_s @ hit_path"
      "max Engine.pending after set-up and after each batch";
    layer "link.inject_ns" "ns" Lower "events_per_s @ hit_path"
      "span on Scenario.inject";
    layer "cpu.jobs_per_event" "ratio" Lower "events_per_s @ all"
      "Cpu.jobs_completed (switch kernel + userspace + controller) / events";
    layer "flow_table.lookups_per_exp" "count" Lower "events_per_s @ hit_path"
      "Flow_table.lookups per experiment";
    layer "flow_table.size_end" "count" Lower "wall_s @ table_scale"
      "Flow_table.length at the end of the run";
    layer "flow_table.microflow_hit_ratio" "ratio" Higher "events_per_s @ hit_path"
      "microflow hits / lookups";
    layer "flow_table.microflow_flushes" "count" Lower "events_per_s @ hit_path"
      "microflow cache flushes per experiment";
    layer "capture.control_msgs_per_exp" "count" Lower "exp_ms_best @ paper_sweep"
      "Capture.messages, both directions, per experiment";
    layer "packet.decode_ns" "ns" Lower "exp_ms_best @ paper_sweep; events_per_s @ hit_path"
      "Packet.decode of the recorded ingress frames";
    layer "packet.decode_words" "words" Lower "events_per_s @ hit_path"
      "minor words per Packet.decode";
    layer "flow_table.insert_ns" "ns" Lower "events_per_s @ table_scale, paper_sweep"
      "fresh table, the run's final entries inserted in order";
    layer "flow_table.lookup_ns" "ns" Lower "events_per_s @ hit_path"
      "Flow_table.lookup of every recorded frame against that table";
    layer "flow_table.expire_us" "us" Lower "wall_s @ table_scale"
      "one Flow_table.expire sweep at the final size";
    layer "codec.encode_ns" "ns" Lower "exp_ms_best @ paper_sweep, crash_recovery"
      "Of_codec.encode over the run's message mix";
    layer "codec.decode_ns" "ns" Lower "exp_ms_best @ paper_sweep, crash_recovery"
      "Of_codec.decode over the same mix";
    layer "codec.words_per_msg" "words" Lower "exp_ms_best @ paper_sweep"
      "minor words per encode + decode";
    layer "buffer.packet_alloc_take_ns" "ns" Lower "exp_ms_best @ paper_sweep"
      "Packet_buffer.alloc + take (+ reclaim) per recorded frame";
    layer "buffer.flow_add_take_ns" "ns" Lower "exp_ms_best @ paper_sweep"
      "Flow_buffer.add + take_all (+ reclaim) per recorded frame";
    layer "controller.ns_per_pkt_in" "ns" Lower "exp_ms_best @ paper_sweep"
      "standalone Controller fed the run's PACKET_INs at their times, drained";
    layer "switch.hit_ns_per_frame" "ns" Lower "events_per_s @ hit_path"
      "standalone Switch holding the final entries, fed the recorded frames";
    layer "engine.churn_ns_per_event" "ns" Lower "events_per_s @ hit_path, table_scale"
      "schedule + step_batch churn on a fresh Engine at the traced pending_peak";
    layer "layers.attributed_pct" "%" Higher "-"
      "(switch hit + controller + rule insert + inject replay cost) x traced count \
       / traced dispatch time";
    layer "trace.overhead_pct" "%" Lower "-"
      "traced vs untraced median experiment time on the same experiments";
    layer "gc.minor_words_per_event" "words" Lower "events_per_s @ all"
      "Gc minor words per event in the untraced pass";
    layer "gc.promoted_words_per_event" "words" Lower "peak_rss_mb, wall_s @ hit_path"
      "Gc promoted words per event in the untraced pass";
    layer "gc.major_collections" "count" Lower "wall_s @ hit_path"
      "major collections per experiment in the untraced pass";
    layer "exec.speedup_jobs2" "ratio" Higher "wall_s @ paper_sweep"
      "sampled configs through Exec.run_experiments: jobs 1 time / jobs nproc time";
  ]

let all = end_to_end @ per_layer

let find name = List.find (fun m -> String.equal m.name name) all

let better_string = function Lower -> "lower" | Higher -> "higher"

(* [value] is worse than [base] by more than [bound] of [base]. *)
let worse_beyond m ~bound ~base value =
  match m.better with
  | Lower -> value > base *. (1.0 +. bound)
  | Higher -> value < base *. (1.0 -. bound)

let is_better m a b =
  match m.better with Lower -> a < b | Higher -> a > b

let print_list () =
  let row m extra =
    Printf.printf "  %-32s %-6s %-7s %s\n      %s\n" m.name m.unit_
      (better_string m.better) extra m.doc
  in
  print_endline "end-to-end (reported by run, --trace 0):";
  List.iter
    (fun m ->
      match m.kind with
      | End_to_end bound -> row m (Printf.sprintf "bound %.0f%%" (bound *. 100.0))
      | Layer _ -> ())
    all;
  print_endline "per-layer (reported by trace, --trace 1):";
  List.iter
    (fun m ->
      match m.kind with
      | Layer moves -> row m ("should move " ^ moves)
      | End_to_end _ -> ())
    all
