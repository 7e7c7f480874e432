type exp_a_data = {
  no_buffer : Sweep.series;
  buffer_16 : Sweep.series;
  buffer_256 : Sweep.series;
}

type exp_b_data = { packet_gran : Sweep.series; flow_gran : Sweep.series }

let run_exp_a ?rates ?reps ?jobs () =
  let sweep mechanism buffer_capacity label =
    Sweep.run ~label ?rates ?reps ?jobs (fun ~rate_mbps ~seed ->
        Config.exp_a ~mechanism ~buffer_capacity ~rate_mbps ~seed)
  in
  {
    no_buffer = sweep Config.No_buffer 0 "no-buffer";
    buffer_16 = sweep Config.Packet_granularity 16 "buffer-16";
    buffer_256 = sweep Config.Packet_granularity 256 "buffer-256";
  }

let run_exp_b ?rates ?reps ?jobs () =
  let sweep mechanism label =
    Sweep.run ~label ?rates ?reps ?jobs (fun ~rate_mbps ~seed ->
        Config.exp_b ~mechanism ~rate_mbps ~seed)
  in
  {
    packet_gran = sweep Config.Packet_granularity "packet-granularity";
    flow_gran = sweep Config.Flow_granularity "flow-granularity";
  }

(* Metric extractors (delays in milliseconds for readability). *)
let load_up (r : Experiment.result) = r.Experiment.ctrl_load_up_mbps
let load_down (r : Experiment.result) = r.Experiment.ctrl_load_down_mbps
let controller_cpu (r : Experiment.result) = r.Experiment.controller_cpu_pct
let switch_cpu (r : Experiment.result) = r.Experiment.switch_cpu_pct
let setup_ms (r : Experiment.result) = r.Experiment.setup_delay.Experiment.mean *. 1e3
let controller_ms (r : Experiment.result) =
  r.Experiment.controller_delay.Experiment.mean *. 1e3
let switch_ms (r : Experiment.result) = r.Experiment.switch_delay.Experiment.mean *. 1e3
let forwarding_ms (r : Experiment.result) =
  r.Experiment.forwarding_delay.Experiment.mean *. 1e3
let buffer_mean (r : Experiment.result) = r.Experiment.buffer_mean_in_use
let buffer_max (r : Experiment.result) = float_of_int r.Experiment.buffer_max_in_use

(* One declaration per figure: [id] is the CLI's figure id and the CSV
   file name, [caption] the paper's figure number. *)
type 'd figure = {
  id : string;
  caption : string;
  title : string;
  unit_label : string;
  series : 'd -> Sweep.series list;
  metric : Experiment.result -> float;
}

let exp_a_all d = [ d.no_buffer; d.buffer_16; d.buffer_256 ]
let exp_a_buffered d = [ d.buffer_16; d.buffer_256 ]
let exp_b_both d = [ d.packet_gran; d.flow_gran ]
let load_up_title = "control path load, switch -> controller"
let load_down_title = "control path load, controller -> switch"

let exp_a_table =
  [
    { id = "fig2a"; caption = "Fig 2(a)"; title = load_up_title;
      unit_label = "Mbps"; series = exp_a_all; metric = load_up };
    { id = "fig2b"; caption = "Fig 2(b)"; title = load_down_title;
      unit_label = "Mbps"; series = exp_a_all; metric = load_down };
    { id = "fig3"; caption = "Fig 3"; title = "controller usages";
      unit_label = "% CPU"; series = exp_a_all; metric = controller_cpu };
    { id = "fig4"; caption = "Fig 4"; title = "switch usages";
      unit_label = "% CPU"; series = exp_a_all; metric = switch_cpu };
    { id = "fig5"; caption = "Fig 5"; title = "flow setup delay";
      unit_label = "ms"; series = exp_a_all; metric = setup_ms };
    { id = "fig6"; caption = "Fig 6"; title = "controller delay";
      unit_label = "ms"; series = exp_a_all; metric = controller_ms };
    { id = "fig7"; caption = "Fig 7"; title = "switch delay";
      unit_label = "ms"; series = exp_a_all; metric = switch_ms };
    { id = "fig8"; caption = "Fig 8"; title = "buffer utilization (units in use)";
      unit_label = "units"; series = exp_a_buffered; metric = buffer_mean };
  ]

let exp_b_table =
  [
    { id = "fig9a"; caption = "Fig 9(a)"; title = load_up_title;
      unit_label = "Mbps"; series = exp_b_both; metric = load_up };
    { id = "fig9b"; caption = "Fig 9(b)"; title = load_down_title;
      unit_label = "Mbps"; series = exp_b_both; metric = load_down };
    { id = "fig10"; caption = "Fig 10"; title = "controller usages";
      unit_label = "% CPU"; series = exp_b_both; metric = controller_cpu };
    { id = "fig11"; caption = "Fig 11"; title = "switch usages";
      unit_label = "% CPU"; series = exp_b_both; metric = switch_cpu };
    { id = "fig12a"; caption = "Fig 12(a)"; title = "flow setup delay";
      unit_label = "ms"; series = exp_b_both; metric = setup_ms };
    { id = "fig12b"; caption = "Fig 12(b)"; title = "flow forwarding delay";
      unit_label = "ms"; series = exp_b_both; metric = forwarding_ms };
    { id = "fig13a"; caption = "Fig 13(a)"; title = "average buffer units used";
      unit_label = "units"; series = exp_b_both; metric = buffer_mean };
    { id = "fig13b"; caption = "Fig 13(b)"; title = "maximum buffer units used";
      unit_label = "units"; series = exp_b_both; metric = buffer_max };
  ]

(* Column names: [rate] heads the rate column, [sep] joins a series
   label to "mean" / "sd". *)
let header ~rate ~sep series =
  rate
  :: List.concat_map
       (fun (s : Sweep.series) ->
         [ s.Sweep.label ^ sep ^ "mean"; s.Sweep.label ^ sep ^ "sd" ])
       series

(* One row per rate: the rate, then each series' mean and sd. *)
let rows ~fmt series metric =
  let rates =
    match series with
    | [] -> []
    | s :: _ -> List.map (fun (p : Sweep.point) -> p.Sweep.rate_mbps) s.Sweep.points
  in
  List.mapi
    (fun i rate ->
      Printf.sprintf "%.0f" rate
      :: List.concat_map
           (fun (s : Sweep.series) ->
             let p = List.nth s.Sweep.points i in
             [ fmt (Sweep.point_mean p metric); fmt (Sweep.point_sd p metric) ])
           series)
    rates

let print_figure fig d =
  Printf.printf "\n%s: %s [%s]\n" fig.caption fig.title fig.unit_label;
  let series = fig.series d in
  Sdn_measure.Report.print_table
    ~header:(header ~rate:"rate(Mbps)" ~sep:" " series)
    ~rows:(rows ~fmt:(Printf.sprintf "%.3f") series fig.metric)

let figure_csv ~dir fig d =
  let series = fig.series d in
  Sdn_measure.Report.write_csv
    ~path:(Filename.concat dir (fig.id ^ ".csv"))
    ~header:(header ~rate:"rate_mbps" ~sep:"_" series)
    ~rows:(rows ~fmt:(Printf.sprintf "%.6f") series fig.metric)

let export_csv ~dir a b =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter (fun fig -> figure_csv ~dir fig a) exp_a_table;
  List.iter (fun fig -> figure_csv ~dir fig b) exp_b_table

let claim ~what ~paper ~ours =
  Printf.printf "  %-46s paper: %6s   measured: %6s\n" what paper ours

let pct v = Printf.sprintf "%.1f%%" v

let summary_exp_a d =
  let reduction metric =
    Sweep.reduction_pct
      ~baseline:(Sweep.series_mean d.no_buffer metric)
      ~improved:(Sweep.series_mean d.buffer_256 metric)
  in
  Printf.printf "\nSection IV headline claims (buffer-256 vs no-buffer, sweep averages):\n";
  claim ~what:"control path load reduction (to controller)" ~paper:"78.7%"
    ~ours:(pct (reduction load_up));
  claim ~what:"control path load reduction (to switch)" ~paper:"96%"
    ~ours:(pct (reduction load_down));
  claim ~what:"controller overhead reduction" ~paper:"37%"
    ~ours:(pct (reduction controller_cpu));
  claim ~what:"switch overhead increase"
    ~paper:"5.6%"
    ~ours:
      (pct
         (-.Sweep.reduction_pct
             ~baseline:(Sweep.series_mean d.no_buffer switch_cpu)
             ~improved:(Sweep.series_mean d.buffer_256 switch_cpu)));
  claim ~what:"controller delay reduction" ~paper:"58%"
    ~ours:(pct (reduction controller_ms));
  claim ~what:"switch delay reduction" ~paper:"87%"
    ~ours:(pct (reduction switch_ms));
  claim ~what:"flow setup delay reduction" ~paper:"78%"
    ~ours:(pct (reduction setup_ms))

let summary_exp_b d =
  let reduction metric =
    Sweep.reduction_pct
      ~baseline:(Sweep.series_mean d.packet_gran metric)
      ~improved:(Sweep.series_mean d.flow_gran metric)
  in
  Printf.printf
    "\nSection V headline claims (flow- vs packet-granularity, sweep averages):\n";
  claim ~what:"control path load reduction (to controller)" ~paper:"64%"
    ~ours:(pct (reduction load_up));
  claim ~what:"control path load reduction (to switch)" ~paper:"80%"
    ~ours:(pct (reduction load_down));
  claim ~what:"controller overhead reduction" ~paper:"35.7%"
    ~ours:(pct (reduction controller_cpu));
  claim ~what:"buffer utilization improvement" ~paper:"71.6%"
    ~ours:(pct (reduction buffer_mean));
  claim ~what:"flow forwarding delay reduction" ~paper:"18%"
    ~ours:(pct (reduction forwarding_ms))

let figures table = List.map (fun fig -> (fig.id, print_figure fig)) table
let exp_a_figures = figures exp_a_table
let exp_b_figures = figures exp_b_table

let run_all ?rates ?reps ?jobs () =
  Printf.printf "== Section IV: benefits of the default switch buffer ==\n";
  Printf.printf "workload: 1000 single-packet UDP flows, 1000 B frames\n";
  let a = run_exp_a ?rates ?reps ?jobs () in
  List.iter (fun fig -> print_figure fig a) exp_a_table;
  summary_exp_a a;
  Printf.printf "\n== Section V: flow-granularity buffer mechanism ==\n";
  Printf.printf
    "workload: 50 flows x 20 packets, cross-sequence batches of 5, buffer 256\n";
  let b = run_exp_b ?rates ?reps ?jobs () in
  List.iter (fun fig -> print_figure fig b) exp_b_table;
  summary_exp_b b
