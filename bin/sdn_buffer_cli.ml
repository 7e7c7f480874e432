(* Command-line front end for the reproduction: single runs, sweeps,
   individual figures, the full evaluation, the ablation studies and
   calibration checks. *)

open Cmdliner
open Sdn_core

(* Numeric convs that reject out-of-range values at parse time, so a
   bad value exits with cmdliner's usage message instead of reaching an
   [invalid_arg] deep in the simulator. *)
let checked_conv base ~valid ~what =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when valid v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s must be %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int = checked_conv Arg.int ~valid:(fun n -> n > 0) ~what:"> 0"

let positive_float =
  checked_conv Arg.float
    ~valid:(fun x -> Float.is_finite x && x > 0.0)
    ~what:"a finite number > 0"

(* A packet-buffer pool's size: buffer ids are 16 bits wide, and 0
   means the no-buffer configuration. *)
let buffer_units =
  checked_conv Arg.int
    ~valid:(fun n -> n >= 0 && n <= 0xFFFF)
    ~what:"in 0..65535"

let probability =
  checked_conv Arg.float
    ~valid:(fun p -> p >= 0.0 && p <= 1.0)
    ~what:"in [0, 1]"

(* Durations and periods in seconds: NaN or a negative value would
   reach [Faults.create] or silently switch a mechanism off. *)
let non_negative_float =
  checked_conv Arg.float
    ~valid:(fun x -> Float.is_finite x && x >= 0.0)
    ~what:"a finite number >= 0"

(* A conv from a parser and printer pair, such as the library's own
   [*_of_string] / [*_to_string] converters. *)
let conv_of ~parse ~print =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (parse s)),
      fun fmt v -> Format.pp_print_string fmt (print v) )

let mechanism_conv =
  conv_of
    ~parse:(function
      | "no-buffer" | "none" -> Ok Config.No_buffer
      | "packet" | "packet-granularity" -> Ok Config.Packet_granularity
      | "flow" | "flow-granularity" -> Ok Config.Flow_granularity
      | s -> Error (Printf.sprintf "unknown mechanism %S" s))
    ~print:Sdn_switch.Switch.mechanism_to_string

let mechanism_arg =
  Arg.(
    value
    & opt mechanism_conv Config.Packet_granularity
    & info [ "m"; "mechanism" ] ~docv:"MECH"
        ~doc:"Buffer mechanism: no-buffer, packet-granularity or \
              flow-granularity.")

let buffer_arg =
  Arg.(
    value & opt buffer_units 256
    & info [ "b"; "buffer" ] ~docv:"UNITS"
        ~doc:"Buffer capacity in units; 0 runs the no-buffer mechanism.")

let rate_arg =
  Arg.(
    value & opt positive_float 30.0
    & info [ "r"; "rate" ] ~docv:"MBPS" ~doc:"Sending rate in Mbps.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let reps_arg =
  Arg.(
    value & opt positive_int 20
    & info [ "n"; "reps" ] ~docv:"N" ~doc:"Repetitions per rate point.")

let rates_arg =
  Arg.(
    value
    & opt (list positive_float) Sweep.default_rates
    & info [ "rates" ] ~docv:"R1,R2,..." ~doc:"Sending rates to sweep (Mbps).")

let faults_conv =
  conv_of ~parse:Sdn_sim.Faults.spec_of_string
    ~print:Sdn_sim.Faults.spec_to_string

let faults_arg =
  Arg.(
    value
    & opt faults_conv Sdn_sim.Faults.none
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Control-channel fault plan: comma-separated $(b,loss=P), \
           $(b,burst=PGB:PBG:LBAD[:LGOOD]), $(b,jitter=S) and \
           $(b,outage=T0-T1[+T0-T1...]). The plan is driven by the run's \
           seed: the same seed and spec reproduce the same fault schedule \
           message for message.")

(* --crash takes the fault-plan crash grammar without the key: the
   value is parsed by prefixing "crash=" and handing it to the spec
   parser, so the two spellings can never drift apart. *)
let crash_conv =
  conv_of
    ~parse:(fun s ->
      Result.map
        (fun spec -> spec.Sdn_sim.Faults.crashes)
        (Sdn_sim.Faults.spec_of_string ("crash=" ^ s)))
    ~print:(fun crashes ->
      String.concat "+"
        (List.map
           (fun (c : Sdn_sim.Faults.crash) ->
             Printf.sprintf "%s:%g:%g:%s"
               (Sdn_sim.Faults.crash_node_to_string c.Sdn_sim.Faults.node)
               c.Sdn_sim.Faults.at_s c.Sdn_sim.Faults.down_s
               (Sdn_sim.Faults.restart_mode_to_string c.Sdn_sim.Faults.mode))
           crashes))

let crash_arg =
  Arg.(
    value
    & opt crash_conv []
    & info [ "crash" ] ~docv:"NODE:AT:DOWN:MODE[+...]"
        ~doc:
          "Schedule node crashes: $(b,NODE) is $(b,switch) or \
           $(b,controller), $(b,AT) the crash instant (seconds), $(b,DOWN) \
           the downtime before the restart, $(b,MODE) $(b,warm) (process \
           state lost, device tables survive) or $(b,cold) (buffered \
           packets wiped, flow table cleared, configuration reset). \
           Equivalent to $(b,crash=...) inside $(b,--faults); the two \
           merge.")

let watermark_arg =
  Arg.(
    value & opt probability 1.0
    & info [ "watermark" ] ~docv:"FRACTION"
        ~doc:
          "Overload-guard high watermark: once the buffer pool is this \
           full (fraction of capacity), new miss chains are shed at \
           admission instead of evicting in-flight ones. $(b,1.0) (the \
           default) disables the guard.")

let buf_policy_conv =
  conv_of ~parse:Sdn_switch.Buf_policy.kind_of_string
    ~print:Sdn_switch.Buf_policy.kind_to_string

let buf_policy_arg =
  Arg.(
    value
    & opt (some buf_policy_conv) None
    & info [ "buf-policy" ] ~docv:"POLICY"
        ~doc:
          "Shared-buffer sharing discipline across the packet pool and QoS \
           queues: $(b,static) (private partitions, the reference), \
           $(b,share) (complete sharing), $(b,dt:ALPHA) (Dynamic Threshold: \
           admit while the class holds less than ALPHA x free), or \
           $(b,tdt[:ALPHA[:TARGET_MS]]) (adaptive threshold tightening \
           under queueing delay). Unset (the default) keeps the legacy \
           private buffers and byte-identical output. Only the \
           packet-granularity pool has a policy: with $(b,-m flow), \
           $(b,-m no-buffer) or $(b,-b 0) the flag is a usage error.")

let fail_mode_conv =
  conv_of ~parse:Sdn_switch.Session.fail_mode_of_string
    ~print:Sdn_switch.Session.fail_mode_to_string

let fail_mode_arg =
  Arg.(
    value
    & opt fail_mode_conv Config.Fail_secure
    & info [ "fail-mode" ] ~docv:"MODE"
        ~doc:
          "What the switch does with miss-match traffic while its controller \
           session is down: $(b,secure) drops it and freezes buffered chains; \
           $(b,standalone) keeps forwarding through an internal L2 learning \
           path.")

let echo_interval_arg =
  Arg.(
    value & opt non_negative_float 0.0
    & info [ "echo-interval" ] ~docv:"SECONDS"
        ~doc:
          "Control-session keepalive period on both endpoints. 0 (the \
           default) disables the liveness machinery entirely.")

let echo_misses_arg =
  Arg.(
    value & opt positive_int 3
    & info [ "echo-misses" ] ~docv:"N"
        ~doc:"Unanswered keepalives before a session is declared down.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "SDN_BUFFER_JOBS")
        ~doc:
          "Worker domains for independent replications (sweep points, \
           repetitions). Purely an execution-width knob: results are merged \
           by task index, so any value produces byte-identical output; \
           $(b,1) (the default) runs the sequential reference path. Combine \
           with $(b,--check) to arm the parallel-equivalence replay, which \
           re-runs a sampled task sequentially and compares the results \
           field for field.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Arm the runtime protocol-invariant checker (buffer conservation, \
           single PACKET_IN per chain, xid uniqueness, session transitions, \
           codec round-trip). A clean run prints byte-identically to an \
           unchecked one; any violation is reported with its event trace and \
           the command exits 1.")

(* Shared --check epilogue: report every dirty run of a grid and fail
   the command. *)
let check_exit (results : Experiment.result list) =
  List.iteri
    (fun i (r : Experiment.result) ->
      Option.iter
        (Printf.eprintf "invariant violations in %s: %d\n%s\n"
           (Exec.describe i r.Experiment.config)
           r.Experiment.check_violations)
        r.Experiment.check_report)
    results;
  if
    List.exists
      (fun (r : Experiment.result) -> Option.is_some r.Experiment.check_report)
      results
  then exit 1

let workload_arg =
  let workload_conv =
    conv_of
      ~parse:(function
        | "exp-a" -> Ok (Config.Exp_a { n_flows = 1000 })
        | "exp-b" ->
            Ok
              (Config.Exp_b
                 { n_flows = 50; packets_per_flow = 20; concurrent = 5 })
        | "burst" -> Ok (Config.Udp_burst { n_packets = 200 })
        | "poisson" -> Ok (Config.Poisson_flows { n_flows = 1000 })
        | "poisson-mix" ->
            Ok (Config.Poisson_mix { n_packets = 1000; miss_fraction = 0.5 })
        | s -> Error (Printf.sprintf "unknown workload %S" s))
      ~print:(function
        | Config.Exp_a _ -> "exp-a"
        | Config.Exp_b _ -> "exp-b"
        | Config.Udp_burst _ -> "burst"
        | Config.Poisson_flows _ -> "poisson"
        | Config.Poisson_mix _ -> "poisson-mix")
  in
  Arg.(
    value
    & opt workload_conv (Config.Exp_a { n_flows = 1000 })
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"Workload: exp-a (1000 single-packet flows), exp-b (50x20 \
              cross-sequence), burst, poisson (Poisson single-packet flows) \
              or poisson-mix (Poisson hit/miss mix).")

let run_cmd =
  let run mechanism buffer rate seed workload faults crashes watermark
      buf_policy echo_interval echo_misses fail_mode check =
    (* A pool of 0 units is the no-buffer configuration, whatever the
       mechanism named. *)
    let mechanism = if buffer = 0 then Config.No_buffer else mechanism in
    match (mechanism, buf_policy) with
    | (Config.No_buffer | Config.Flow_granularity), Some _ ->
        (* The policy shapes only the packet-granularity pool (and QoS
           queues, which [run] does not configure). *)
        `Error (true, "--buf-policy needs -m packet and a pool of 1 unit or more")
    | _, _ ->
        let faults =
          {
            faults with
            Sdn_sim.Faults.crashes = faults.Sdn_sim.Faults.crashes @ crashes;
          }
        in
        let config =
          Config.with_mechanism
            {
              Config.default with
              Config.buffer_capacity = buffer;
              rate_mbps = rate;
              seed;
              workload;
              faults;
              overload_watermark = watermark;
              buf_policy;
              echo_interval;
              echo_misses;
              fail_mode;
              check;
            }
            mechanism
        in
        let result = Experiment.run config in
        Format.printf "%a@." Experiment.pp_result result;
        check_exit [ result ];
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ mechanism_arg $ buffer_arg $ rate_arg $ seed_arg
       $ workload_arg $ faults_arg $ crash_arg $ watermark_arg
       $ buf_policy_arg $ echo_interval_arg $ echo_misses_arg
       $ fail_mode_arg $ check_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment and print its metrics.") term

let chaos_cmd =
  let loss_rates_arg =
    Arg.(
      value
      & opt (list probability) Chaos.default_loss_rates
      & info [ "loss-rates" ] ~docv:"P1,P2,..."
          ~doc:"Control-channel loss rates to sweep.")
  in
  let outage_arg =
    Arg.(
      value & flag
      & info [ "outage" ]
          ~doc:
            "Run the outage sweep instead of the loss sweep: a scheduled \
             control-channel blackout against every mechanism and fail mode, \
             with the echo keepalive armed.")
  in
  let durations_arg =
    Arg.(
      value
      & opt (list non_negative_float) Chaos.default_outage_durations
      & info [ "durations" ] ~docv:"S1,S2,..."
          ~doc:"Outage durations to sweep (seconds, with $(b,--outage)).")
  in
  let crash_sweep_arg =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Run the crash sweep instead of the loss sweep: a scheduled \
             node crash-restart (switch and controller, mid-incast) against \
             every mechanism, with the echo keepalive armed and the \
             post-restart flow-state reconciliation measured.")
  in
  let restart_modes_arg =
    let modes_conv =
      conv_of
        ~parse:(function
          | "both" -> Ok Chaos.default_crash_modes
          | s ->
              Result.map (fun m -> [ m ])
                (Sdn_sim.Faults.restart_mode_of_string s))
        ~print:(function
          | [ m ] -> Sdn_sim.Faults.restart_mode_to_string m
          | _ -> "both")
    in
    Arg.(
      value
      & opt modes_conv Chaos.default_crash_modes
      & info [ "restart-mode" ] ~docv:"MODE"
          ~doc:
            "Restart mode(s) for the crash sweep: $(b,warm), $(b,cold) or \
             $(b,both) (the default).")
  in
  let downs_arg =
    Arg.(
      value
      & opt (list non_negative_float) Chaos.default_crash_downs
      & info [ "downs" ] ~docv:"S1,S2,..."
          ~doc:"Crash downtimes to sweep (seconds, with $(b,--crash)).")
  in
  let policy_sweep_arg =
    Arg.(
      value & flag
      & info [ "policy" ]
          ~doc:
            "Run the buffer-policy sweep instead of the loss sweep: every \
             shared-buffer sharing discipline against every pool size under \
             a deterministic incast burst into a slow egress uplink, with \
             three strict-priority classes drawing on the shared pool.")
  in
  let policies_arg =
    Arg.(
      value
      & opt (list buf_policy_conv) Chaos.default_policies
      & info [ "policies" ] ~docv:"P1,P2,..."
          ~doc:
            "Sharing disciplines to sweep (with $(b,--policy)); same grammar \
             as $(b,--buf-policy).")
  in
  let buffers_arg =
    Arg.(
      value
      & opt (list buffer_units) Chaos.default_policy_buffers
      & info [ "buffers" ] ~docv:"N1,N2,..."
          ~doc:"Packet-pool capacities to sweep (with $(b,--policy)).")
  in
  let run seed rate loss_rates faults outage durations crash modes downs policy
      policies buffers check jobs =
    let results =
      if policy then begin
        let base = { (Chaos.default_policy_base ~seed) with Config.check } in
        let results = Chaos.run_policy ~policies ~buffers ~jobs ~base () in
        Chaos.print_policy_report results;
        results
      end
      else if crash then begin
        let base =
          { (Chaos.default_crash_base ~seed) with Config.rate_mbps = rate; check }
        in
        let results = Chaos.run_crash ~modes ~downs ~jobs ~base () in
        Chaos.print_crash_report results;
        results
      end
      else if outage then begin
        let base =
          { (Chaos.default_outage_base ~seed) with Config.rate_mbps = rate; check }
        in
        let results = Chaos.run_outage ~durations ~jobs ~base () in
        Chaos.print_outage_report results;
        results
      end
      else begin
        let base =
          {
            (Chaos.default_base ~seed) with
            Config.rate_mbps = rate;
            faults;
            check;
          }
        in
        let results = Chaos.run ~loss_rates ~jobs ~base () in
        Chaos.print_report results;
        results
      end
    in
    check_exit results
  in
  let term =
    Term.(
      const run $ seed_arg $ rate_arg $ loss_rates_arg $ faults_arg
      $ outage_arg $ durations_arg $ crash_sweep_arg $ restart_modes_arg
      $ downs_arg $ policy_sweep_arg $ policies_arg $ buffers_arg $ check_arg
      $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep control-channel faults against every buffer mechanism: \
          independent loss by default, a scheduled blackout with \
          $(b,--outage), a node crash-restart with $(b,--crash), or the \
          shared-buffer policy grid with $(b,--policy). Deterministic: the \
          same seed yields a byte-identical report.")
    term

let figure_cmd =
  let all_ids =
    List.map fst Figures.exp_a_figures @ List.map fst Figures.exp_b_figures
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun id -> (id, id)) all_ids))) None
      & info [] ~docv:"FIGURE"
          ~doc:
            (Printf.sprintf "Figure to reproduce: %s."
               (String.concat ", " all_ids)))
  in
  let run id rates reps jobs =
    match List.assoc_opt id Figures.exp_a_figures with
    | Some f -> f (Figures.run_exp_a ~rates ~reps ~jobs ())
    | None -> (
        match List.assoc_opt id Figures.exp_b_figures with
        | Some f -> f (Figures.run_exp_b ~rates ~reps ~jobs ())
        | None -> prerr_endline "unknown figure")
  in
  let term = Term.(const run $ id_arg $ rates_arg $ reps_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "figure" ~doc:"Reproduce one figure of the paper.")
    term

let all_cmd =
  let run rates reps jobs = Figures.run_all ~rates ~reps ~jobs () in
  let term = Term.(const run $ rates_arg $ reps_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every figure and the headline claims.")
    term

let export_cmd =
  let dir_arg =
    Arg.(
      value & opt string "results"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Directory for the CSV files.")
  in
  let run dir rates reps jobs =
    let a = Figures.run_exp_a ~rates ~reps ~jobs () in
    let b = Figures.run_exp_b ~rates ~reps ~jobs () in
    Figures.export_csv ~dir a b;
    Printf.printf "wrote 16 figure CSVs to %s/\n" dir
  in
  let term = Term.(const run $ dir_arg $ rates_arg $ reps_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "export" ~doc:"Run both sweeps and export every figure as CSV.")
    term

let validate_cmd =
  let grid_arg =
    let grid_conv =
      let parse = function
        | "full" -> Ok Validate.full_grid
        | "quick" -> Ok Validate.quick_grid
        | "golden" -> Ok Validate.golden_grid
        | s -> Error (`Msg (Printf.sprintf "unknown grid %S" s))
      in
      let print fmt (g : Validate.grid) =
        Format.pp_print_string fmt
          (if g = Validate.full_grid then "full"
           else if g = Validate.quick_grid then "quick"
           else "golden")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt grid_conv Validate.full_grid
      & info [ "g"; "grid" ] ~docv:"GRID"
          ~doc:
            "Validation grid: $(b,full) (5 utilizations x 3 offered loads x \
             3 reps x all controller profiles), $(b,quick) (the CI subset) \
             or $(b,golden) (the byte-stable fixture).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:"Also write the machine-readable agreement report to $(docv).")
  in
  let reconverge_arg =
    Arg.(
      value & flag
      & info [ "reconverge" ]
          ~doc:
            "Run the crash-reconvergence gate instead of a model grid: \
             inject a warm switch crash into the jackson rho=0.3 point and \
             assert the steady-state delay metrics re-enter the crash-free \
             tolerance bands after recovery (plus recovery-time and \
             reconciliation gates).")
  in
  let run grid reconverge csv_path check jobs =
    let report =
      if reconverge then Validate.reconvergence ~check ~jobs ()
      else Validate.run ~check ~jobs grid
    in
    print_string (Validate.summary report);
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Validate.csv report);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      csv_path;
    if check && report.Validate.violations > 0 then exit 1;
    if not report.Validate.ok then exit 2
  in
  let term =
    Term.(const run $ grid_arg $ reconverge_arg $ csv_arg $ check_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Cross-validate the simulator against the analytical queueing \
          models: generate configurations inside each model's operating \
          regime, run them (deterministically, on $(b,--jobs) domains), and \
          assert per-metric agreement within tolerance. Exits 2 on \
          divergence, 1 on an invariant violation under $(b,--check).")
    term

let massive_cmd =
  let flows_arg =
    Arg.(
      value & opt positive_int 1_000_000
      & info [ "flows" ] ~docv:"N"
          ~doc:"Flows injected through the full pipeline.")
  and shards_arg =
    Arg.(
      value & opt positive_int 20
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Independent experiment shards the flows are split into (the \
             parallel grain for $(b,--jobs)).")
  in
  let run flows shards seed check jobs =
    (* Deterministic counters go to stdout (CI byte-compares them
       across --jobs widths); the wall-clock rate goes to stderr only. *)
    let now () = Int64.to_float (Monotonic_clock.now ()) in
    let t0 = now () in
    let pl = Massive.run_pipeline ~flows ~shards ~check ~jobs ~seed () in
    let pl_ns = now () -. t0 in
    Printf.printf
      "massive: pipeline shards=%d flows=%d packets_in=%d packets_out=%d \
       flows_completed=%d sim_events=%d\n"
      pl.Massive.pl_shards pl.Massive.pl_flows pl.Massive.pl_packets_in
      pl.Massive.pl_packets_out pl.Massive.pl_flows_completed
      pl.Massive.pl_sim_events;
    Printf.eprintf "massive: pipeline %.2f Mevents/s (wall %.3f s, %d jobs)\n"
      (float_of_int pl.Massive.pl_sim_events /. pl_ns *. 1e3)
      (pl_ns /. 1e9) jobs;
    List.iter (Printf.eprintf "%s\n") pl.Massive.pl_check_reports;
    if pl.Massive.pl_check_violations > 0 then begin
      Printf.eprintf "massive: %d invariant violations\n"
        pl.Massive.pl_check_violations;
      exit 1
    end
  in
  let term =
    Term.(const run $ flows_arg $ shards_arg $ seed_arg $ check_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "massive"
       ~doc:
         "Extreme-scale throughput scenario: push an extreme Poisson flow \
          count through the full switch/controller pipeline in independent \
          shards. Counters print deterministically on stdout; the \
          wall-clock event rate prints on stderr.")
    term

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Run the ablation studies of the design choices: buffer sizing, \
          PACKET_IN truncation length, release strategy, re-request timeout \
          under loss, rule-programming latency and proactive provisioning.")
    Term.(const Ablations.run_all $ const ())

let calibration_cmd =
  let run () =
    let checks = Calibration.sanity () in
    List.iter
      (fun (what, ok) ->
        Printf.printf "[%s] %s\n" (if ok then "ok" else "FAIL") what)
      checks;
    if List.for_all snd checks then ()
    else exit 1
  in
  Cmd.v
    (Cmd.info "calibration" ~doc:"Check the calibration sanity conditions.")
    Term.(const run $ const ())

let default_info =
  Cmd.info "sdn_buffer_cli" ~version:"1.0.0"
    ~doc:
      "Reproduction of 'Adopting SDN Switch Buffer: Benefits Analysis and \
       Mechanism Design' (ICDCS 2017) on a simulated testbed."

let () =
  exit
    (Cmd.eval
       (Cmd.group default_info
          [
            run_cmd; chaos_cmd; figure_cmd; all_cmd; export_cmd; validate_cmd;
            massive_cmd; ablations_cmd; calibration_cmd;
          ]))
