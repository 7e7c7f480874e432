(* Tests for the experiment harness layers: sweeps, figure data, CSV
   export, ablation smoke, and the reply-xid protocol contract. *)

open Sdn_core

let tiny_rates = [ 20.0; 60.0 ]

let test_sweep_structure () =
  let series =
    Sweep.run ~label:"t" ~rates:tiny_rates ~reps:2 (fun ~rate_mbps ~seed ->
        {
          (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
             ~rate_mbps ~seed)
          with
          Config.workload = Config.Exp_a { n_flows = 50 };
        })
  in
  Alcotest.(check string) "label" "t" series.Sweep.label;
  Alcotest.(check int) "points" 2 (List.length series.Sweep.points);
  List.iter2
    (fun (p : Sweep.point) rate ->
      Alcotest.(check (float 0.0)) "rate" rate p.Sweep.rate_mbps;
      Alcotest.(check int) "reps" 2 (List.length p.Sweep.results))
    series.Sweep.points tiny_rates

let test_sweep_seeds_differ_across_reps () =
  let seen = ref [] in
  let _ =
    Sweep.run ~label:"s" ~rates:[ 10.0 ] ~reps:3 (fun ~rate_mbps ~seed ->
        seen := seed :: !seen;
        {
          (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
             ~rate_mbps ~seed)
          with
          Config.workload = Config.Exp_a { n_flows = 10 };
        })
  in
  Alcotest.(check int) "three distinct seeds" 3
    (List.length (List.sort_uniq compare !seen))

let test_sweep_seed_derivation () =
  (* Golden values: the grid seeds are release-stable, because recorded
     figures are only reproducible if every (rate, rep) cell keeps its
     seed across refactors of the sweep executor. *)
  Alcotest.(check int) "first cell" 50_001
    (Sweep.seed_for ~rate_mbps:5.0 ~rep:0);
  Alcotest.(check int) "second rep" 50_002 (Sweep.seed_for ~rate_mbps:5.0 ~rep:1);
  Alcotest.(check int) "last cell" 1_000_020
    (Sweep.seed_for ~rate_mbps:100.0 ~rep:19);
  let grid =
    List.concat_map
      (fun rate_mbps -> List.init 20 (fun rep -> Sweep.seed_for ~rate_mbps ~rep))
      Sweep.default_rates
  in
  Alcotest.(check int) "full default grid" 400 (List.length grid);
  Alcotest.(check int) "all 400 seeds distinct" 400
    (List.length (List.sort_uniq Int.compare grid));
  Alcotest.(check int) "golden grid checksum" 210_004_200
    (List.fold_left ( + ) 0 grid)

let test_sd_guard_single_rep () =
  (* One repetition has no spread: the sample SD must be exactly 0, not
     nan (n - 1 = 0 in the denominator). *)
  let series =
    Sweep.run ~label:"sd1" ~rates:[ 30.0 ] ~reps:1 (fun ~rate_mbps ~seed ->
        {
          (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
             ~rate_mbps ~seed)
          with
          Config.workload = Config.Exp_a { n_flows = 10 };
        })
  in
  let metric (r : Experiment.result) = r.Experiment.ctrl_load_up_mbps in
  let p = List.hd series.Sweep.points in
  Alcotest.(check (float 0.0)) "point_sd at n=1" 0.0 (Sweep.point_sd p metric);
  Alcotest.(check (float 0.0)) "series_sd at n=1" 0.0
    (Sweep.series_sd series metric);
  Alcotest.(check bool) "mean still finite" true
    (Float.is_finite (Sweep.point_mean p metric))

let test_sweep_aggregates () =
  let series =
    Sweep.run ~label:"agg" ~rates:tiny_rates ~reps:2 (fun ~rate_mbps ~seed ->
        {
          (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
             ~rate_mbps ~seed)
          with
          Config.workload = Config.Exp_a { n_flows = 50 };
        })
  in
  let metric (r : Experiment.result) = r.Experiment.ctrl_load_up_mbps in
  let p = List.hd series.Sweep.points in
  Alcotest.(check bool) "point mean positive" true (Sweep.point_mean p metric > 0.0);
  Alcotest.(check bool) "series mean between point means" true
    (let m = Sweep.series_mean series metric in
     let means =
       List.map (fun p -> Sweep.point_mean p metric) series.Sweep.points
     in
     m >= List.fold_left min infinity means -. 1e-9
     && m <= List.fold_left max 0.0 means +. 1e-9);
  Alcotest.(check (float 1e-9)) "reduction pct" 75.0
    (Sweep.reduction_pct ~baseline:4.0 ~improved:1.0)

let test_csv_export_writes_all_figures () =
  let dir = Filename.temp_file "sdnbuf" "" in
  Sys.remove dir;
  let rates = [ 30.0 ] and reps = 1 in
  let a = Figures.run_exp_a ~rates ~reps () in
  let b = Figures.run_exp_b ~rates ~reps () in
  Figures.export_csv ~dir a b;
  let files = Sys.readdir dir in
  Alcotest.(check int) "16 csv files" 16 (Array.length files);
  (* Spot-check one file's shape. *)
  let ic = open_in (Filename.concat dir "fig2a.csv") in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Alcotest.(check bool) "header names series" true
    (String.length header > 0
    && String.split_on_char ',' header |> List.length = 7);
  Alcotest.(check string) "row starts with the rate" "30"
    (List.hd (String.split_on_char ',' row));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir

let test_figures_data_invariants () =
  let rates = [ 40.0 ] and reps = 2 in
  let a = Figures.run_exp_a ~rates ~reps () in
  let load (r : Experiment.result) = r.Experiment.ctrl_load_up_mbps in
  let nb = Sweep.series_mean a.Figures.no_buffer load in
  let b16 = Sweep.series_mean a.Figures.buffer_16 load in
  let b256 = Sweep.series_mean a.Figures.buffer_256 load in
  (* The paper's Fig. 2(a) ordering at a mid rate. *)
  Alcotest.(check bool)
    (Printf.sprintf "no-buffer(%.1f) > buffer-16(%.1f) >= buffer-256(%.1f)" nb
       b16 b256)
    true
    (nb > b16 && b16 >= b256 -. 1e-9)

let test_ablations_smoke () =
  (* The studies must run end to end; their output goes to stdout. *)
  Ablations.buffer_sizing ~rates:[ 30.0 ] ~sizes:[ 8; 64 ] ~seed:2 ();
  Ablations.miss_send_len_sweep ~lengths:[ 64; 256 ] ~rate:30.0 ~seed:2 ();
  Ablations.release_strategy ~rate:30.0 ~seed:2 ();
  Ablations.resend_timeout_under_loss ~loss_rates:[ 0.05 ] ~timeouts:[ 0.02 ]
    ~seed:2 ();
  Ablations.rule_install_latency ~latencies:[ 0.2e-3 ] ~rate:60.0 ~seed:2 ()

(* The OpenFlow reply-xid contract: replies echo the request's id, and
   so does the OFPT_ERROR refusing a DESC stats request. *)
let test_switch_replies_echo_xid () =
  let open Sdn_sim in
  let open Sdn_openflow in
  let engine = Engine.create () in
  let switch =
    Sdn_switch.Switch.create engine ~config:Sdn_switch.Switch.default_config
      ~costs:Sdn_switch.Costs.default ~rng:(Rng.of_int 1) ()
  in
  let replies = ref [] in
  let ctrl =
    Link.create engine ~name:"c" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun buf ->
        match Of_codec.decode buf with
        | Ok (xid, msg) -> replies := (xid, Of_codec.msg_type msg) :: !replies
        | Error e -> Alcotest.fail e)
      ()
  in
  Sdn_switch.Switch.set_controller_link switch ctrl;
  List.iter
    (fun (xid, msg) ->
      Sdn_switch.Switch.handle_of_message switch (Of_codec.encode ~xid msg))
    [
      (101l, Of_codec.Echo_request (Bytes.of_string "x"));
      (102l, Of_codec.Features_request);
      (103l, Of_codec.Get_config_request);
      (104l, Of_codec.Barrier_request);
      (105l, Of_codec.Stats_request Of_stats.Desc_request);
      (106l, Of_codec.Vendor Of_ext.Flow_buffer_stats_request);
    ];
  Engine.run engine;
  let sorted = List.sort compare !replies in
  Alcotest.(check (list (pair int32 string)))
    "every reply echoes its request xid"
    [
      (101l, "ECHO_REPLY"); (102l, "FEATURES_REPLY"); (103l, "GET_CONFIG_REPLY");
      (104l, "BARRIER_REPLY"); (105l, "ERROR"); (106l, "VENDOR");
    ]
    (List.map (fun (x, t) -> (x, Of_wire.Msg_type.to_string t)) sorted)

let test_config_labels () =
  Alcotest.(check string) "no-buffer" "no-buffer"
    (Config.label { Config.default with Config.mechanism = Config.No_buffer });
  Alcotest.(check string) "buffer-N" "buffer-64"
    (Config.label
       {
         Config.default with
         Config.mechanism = Config.Packet_granularity;
         buffer_capacity = 64;
       });
  Alcotest.(check string) "flow" "flow-granularity"
    (Config.label { Config.default with Config.mechanism = Config.Flow_granularity });
  Alcotest.(check int) "exp-a packet count" 1000
    (Config.packets_expected Config.default);
  Alcotest.(check int) "exp-b packet count" 1000
    (Config.packets_expected
       (Config.exp_b ~mechanism:Config.Flow_granularity ~rate_mbps:10.0 ~seed:1))

let tiny_result () =
  Experiment.run
    {
      (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
         ~rate_mbps:20.0 ~seed:7)
      with
      Config.workload = Config.Exp_a { n_flows = 5 };
    }

(* Aggregating zero repetitions must degrade to 0, not nan or a raise:
   an empty point can reach the plotting paths when a sweep is
   interrupted. *)
let test_sd_guard_empty () =
  let metric (r : Experiment.result) = r.Experiment.ctrl_load_up_mbps in
  let p = { Sweep.rate_mbps = 10.0; results = [] } in
  let series = { Sweep.label = "empty"; points = [ p ] } in
  Alcotest.(check (float 0.0)) "point_sd at n=0" 0.0 (Sweep.point_sd p metric);
  Alcotest.(check (float 0.0)) "series_sd at n=0" 0.0 (Sweep.series_sd series metric);
  Alcotest.(check (float 0.0)) "point_max at n=0" 0.0 (Sweep.point_max p metric);
  Alcotest.(check (float 0.0)) "series_max at n=0" 0.0 (Sweep.series_max series metric);
  Alcotest.(check (float 0.0)) "point_mean at n=0" 0.0 (Sweep.point_mean p metric)

(* The determinism contract behind the parallel-equivalence replay:
   byte-identity, so NaN equals NaN and infinities equal themselves —
   but any real field change is named. *)
let test_diff_result_edge_cases () =
  let r = tiny_result () in
  Alcotest.(check (list string)) "reflexive" [] (Experiment.diff_result r r);
  Alcotest.(check bool) "equal_result" true (Experiment.equal_result r r);
  let nan_sum = { r.Experiment.setup_delay with Experiment.sd = nan } in
  let r_nan = { r with Experiment.setup_delay = nan_sum } in
  Alcotest.(check (list string)) "NaN equals NaN" []
    (Experiment.diff_result r_nan r_nan);
  Alcotest.(check (list string)) "NaN vs finite differs" [ "setup_delay" ]
    (Experiment.diff_result r r_nan);
  let r_inf = { r with Experiment.controller_cpu_pct = infinity } in
  Alcotest.(check (list string)) "infinity equals infinity" []
    (Experiment.diff_result r_inf r_inf);
  Alcotest.(check (list string)) "infinity vs finite differs"
    [ "controller_cpu_pct" ]
    (Experiment.diff_result r r_inf);
  let r2 = { r with Experiment.pkt_ins = r.Experiment.pkt_ins + 1 } in
  Alcotest.(check (list string)) "int field named" [ "pkt_ins" ]
    (Experiment.diff_result r r2);
  (* Several differing fields are all reported. *)
  let r3 =
    {
      r with
      Experiment.pkt_ins = r.Experiment.pkt_ins + 1;
      send_window = r.Experiment.send_window +. 1.0;
    }
  in
  Alcotest.(check (list string)) "all diffs named"
    [ "pkt_ins"; "send_window" ]
    (List.sort compare (Experiment.diff_result r r3))

let suite =
  [
    Alcotest.test_case "sweep structure" `Quick test_sweep_structure;
    Alcotest.test_case "sd of an empty point is 0" `Quick test_sd_guard_empty;
    Alcotest.test_case "diff_result edge cases" `Quick
      test_diff_result_edge_cases;
    Alcotest.test_case "sweep seeds differ" `Quick test_sweep_seeds_differ_across_reps;
    Alcotest.test_case "sweep seed goldens" `Quick test_sweep_seed_derivation;
    Alcotest.test_case "sd of a single repetition is 0" `Quick
      test_sd_guard_single_rep;
    Alcotest.test_case "sweep aggregation" `Quick test_sweep_aggregates;
    Alcotest.test_case "csv export" `Quick test_csv_export_writes_all_figures;
    Alcotest.test_case "figure ordering invariant" `Quick
      test_figures_data_invariants;
    Alcotest.test_case "ablations run end to end" `Slow test_ablations_smoke;
    Alcotest.test_case "switch replies echo the request xid" `Quick
      test_switch_replies_echo_xid;
    Alcotest.test_case "config labels and counts" `Quick test_config_labels;
  ]
