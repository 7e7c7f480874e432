(* Crash–restart fault injection: state-loss semantics, recovery to
   steady state, flow-state reconciliation and the admission-control
   overload guard — plus the goldens pinning every chaos sweep's report
   byte for byte, and the run names those sweeps' results get. *)

open Sdn_sim
open Sdn_core

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

(* Mid-incast crash against the Exp-B workload, keepalive armed (the
   keepalive is what notices a dead peer on both sides). *)
let crash_config ?(mechanism = Config.Flow_granularity)
    ?(node = Faults.Switch_node) ?(mode = Faults.Cold) ?(at = 0.15)
    ?(down = 0.05) ?(check = true) ?(seed = 7) () =
  let base = Config.exp_b ~mechanism ~rate_mbps:20.0 ~seed in
  {
    base with
    Config.echo_interval = 0.01;
    echo_misses = 2;
    check;
    faults =
      {
        base.Config.faults with
        Faults.crashes = [ { Faults.node; at_s = at; down_s = down; mode } ];
      };
  }

let reconciliation_done r =
  List.exists
    (fun (_, what) -> contains what "reconciliation done")
    r.Experiment.crash_events

(* A cold switch crash loses every buffered packet and in-flight frame,
   wipes the flow table (visible as reconciliation re-installs), and
   still satisfies every invariant — conservation holds across the
   crash boundary because the wipe is declared to the checker. *)
let test_switch_cold_crash () =
  let r = Experiment.run (crash_config ~mode:Faults.Cold ()) in
  Alcotest.(check int) "one crash" 1 r.Experiment.node_crashes;
  Alcotest.(check bool)
    "packets lost to the crash" true
    (r.Experiment.packets_lost_to_crash > 0);
  Alcotest.(check bool) "audited" true (r.Experiment.reconcile_audits >= 1);
  Alcotest.(check bool)
    "cold restart forces re-installs" true
    (r.Experiment.reconcile_installs > 0);
  Alcotest.(check bool) "reconciliation converged" true (reconciliation_done r);
  Alcotest.(check int)
    "recovery time measured once" 1 r.Experiment.crash_recovery.Experiment.count;
  Alcotest.(check bool)
    "recovery spans at least the downtime" true
    (r.Experiment.crash_recovery.Experiment.mean >= 0.05);
  Alcotest.(check int) "invariants clean" 0 r.Experiment.check_violations

(* A warm restart keeps the flow table, so reconciliation finds (almost)
   nothing to re-install; a cold one starts from an empty table. *)
let test_warm_keeps_more_state_than_cold () =
  let warm = Experiment.run (crash_config ~mode:Faults.Warm ()) in
  let cold = Experiment.run (crash_config ~mode:Faults.Cold ()) in
  Alcotest.(check bool)
    "cold re-installs strictly more" true
    (cold.Experiment.reconcile_installs > warm.Experiment.reconcile_installs);
  Alcotest.(check int) "warm run clean" 0 warm.Experiment.check_violations;
  Alcotest.(check int) "cold run clean" 0 cold.Experiment.check_violations

(* Satellite: a controller restart while the switch stays up. The
   switch-side session walks Down -> Reconnecting -> Up through the
   existing machinery, the handshake is replayed (resync) and the
   post-crash reconciliation pass converges. The switch itself never
   dies, so no packets are lost to the crash; miss traffic arriving in
   the fail-secure freeze window is frozen and later resumed. *)
let test_controller_restart_resync () =
  let run mode =
    Experiment.run
      (crash_config ~node:Faults.Controller_node ~mode ~down:0.08 ())
  in
  let r = run Faults.Warm in
  let states = List.map snd r.Experiment.session_transitions in
  Alcotest.(check bool)
    "switch session reconnects" true
    (List.mem "reconnecting" states);
  Alcotest.(check bool)
    "session returns to up" true
    (match List.rev states with last :: _ -> last = "up" | [] -> false);
  Alcotest.(check bool) "resynced" true (r.Experiment.controller_resyncs >= 1);
  Alcotest.(check bool) "audited" true (r.Experiment.reconcile_audits >= 1);
  Alcotest.(check bool) "reconciliation converged" true (reconciliation_done r);
  Alcotest.(check int)
    "switch alive: nothing wiped" 0 r.Experiment.packets_lost_to_crash;
  Alcotest.(check bool)
    "frozen chains resumed after the freeze window" true
    (r.Experiment.chains_resumed > 0);
  Alcotest.(check int) "invariants clean" 0 r.Experiment.check_violations;
  (* Cold: the controller's own flow views are wiped too; they are
     relearnt from the switch's stats reply (adopted), not re-pushed,
     so the audit converges without re-installs. *)
  let c = run Faults.Cold in
  Alcotest.(check bool) "cold converges too" true (reconciliation_done c);
  Alcotest.(check int)
    "cold relearns instead of re-installing" 0 c.Experiment.reconcile_installs;
  Alcotest.(check int) "cold run clean" 0 c.Experiment.check_violations

(* The overload guard sheds new miss chains — with a typed counter —
   once the pool crosses the watermark, and stays disarmed at the
   default watermark of 1.0. *)
let test_overload_guard () =
  let config watermark =
    let base =
      Config.exp_b ~mechanism:Config.Flow_granularity ~rate_mbps:30.0 ~seed:7
    in
    {
      base with
      Config.buffer_capacity = 8;
      overload_watermark = watermark;
      check = true;
    }
  in
  let guarded = Experiment.run (config 0.5) in
  Alcotest.(check bool) "sheds" true (guarded.Experiment.overload_sheds > 0);
  Alcotest.(check int)
    "sheds are dropped frames" guarded.Experiment.packets_dropped
    guarded.Experiment.overload_sheds;
  Alcotest.(check int) "guarded run clean" 0 guarded.Experiment.check_violations;
  let off = Experiment.run (config 1.0) in
  Alcotest.(check int) "watermark 1.0 disarms" 0 off.Experiment.overload_sheds

(* Same seed, same crash schedule, byte-identical results. *)
let test_crash_determinism () =
  let config = crash_config ~mode:Faults.Cold () in
  let a = Experiment.run config in
  let b = Experiment.run config in
  Alcotest.(check (list string))
    "identical field for field" [] (Experiment.diff_result a b)

(* ---- Backward-compat goldens (PR 6 fixtures) ----

   Crash schedules are schedule-only: a fault plan without crashes
   draws nothing new, so the chaos and outage sweeps must reproduce
   their PR 6 reports byte for byte. The fixtures were captured from
   the CLI ([chaos -s 7] / [chaos --outage -s 7], default 30 Mbps);
   regenerate deliberately after an intentional output change. *)

let read_golden path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The four default sweeps at seed 7, as [chaos -s 7] runs them (the
   CLI's default 30 Mbps; the policy base fixes its own rate). Each runs
   once, shared by its golden and by the run-name test. *)
let loss_sweep =
  lazy
    (Chaos.run
       ~base:{ (Chaos.default_base ~seed:7) with Config.rate_mbps = 30.0 }
       ())

let outage_sweep =
  lazy
    (Chaos.run_outage
       ~base:{ (Chaos.default_outage_base ~seed:7) with Config.rate_mbps = 30.0 }
       ())

let crash_sweep =
  lazy
    (Chaos.run_crash
       ~base:{ (Chaos.default_crash_base ~seed:7) with Config.rate_mbps = 30.0 }
       ())

let policy_sweep =
  lazy (Chaos.run_policy ~base:(Chaos.default_policy_base ~seed:7) ())

let test_chaos_sweep_bytes () =
  Alcotest.(check string)
    "chaos sweep matches PR 6 output"
    (read_golden "golden/chaos_sweep_pr6.txt")
    (Chaos.report (Lazy.force loss_sweep))

let test_outage_sweep_bytes () =
  Alcotest.(check string)
    "outage sweep matches PR 6 output"
    (read_golden "golden/outage_sweep_pr6.txt")
    (Chaos.outage_report (Lazy.force outage_sweep))

(* The crash sweep is the one report that runs reconciliation, so it
   pins how the controller keys its flow view and orders re-installs.
   The fixture is the CLI's [chaos --crash -s 7] (default 30 Mbps);
   regenerate deliberately after an intentional output change. *)
let test_crash_sweep_bytes () =
  Alcotest.(check string)
    "crash sweep matches golden"
    (read_golden "golden/crash_sweep_pr13.txt")
    (Chaos.crash_report (Lazy.force crash_sweep))

(* The policy report reads its policy and pool-size columns back from
   each point's configuration. The fixture is the CLI's
   [chaos --policy -s 7]; regenerate deliberately after an intentional
   output change. *)
let test_policy_sweep_bytes () =
  Alcotest.(check string)
    "policy sweep matches golden"
    (read_golden "golden/policy_sweep.txt")
    (Chaos.policy_report (Lazy.force policy_sweep))

(* [Exec.describe] names a run in --check reports and
   parallel-equivalence violations, so within one sweep it must tell
   every point apart: the mechanism label alone does not, the fault
   plan and the fail mode do. *)
let test_describe_names_every_point () =
  List.iter
    (fun (sweep, results) ->
      let names =
        List.map
          (fun (r : Experiment.result) -> Exec.describe 0 r.Experiment.config)
          (Lazy.force results)
      in
      Alcotest.(check int)
        (sweep ^ ": one name per point")
        (List.length names)
        (List.length (List.sort_uniq String.compare names)))
    [
      ("loss", loss_sweep);
      ("outage", outage_sweep);
      ("crash", crash_sweep);
      ("policy", policy_sweep);
    ]

let suite =
  [
    Alcotest.test_case "switch cold crash: wipe, loss, reconciliation" `Quick
      test_switch_cold_crash;
    Alcotest.test_case "warm keeps more state than cold" `Quick
      test_warm_keeps_more_state_than_cold;
    Alcotest.test_case "controller restart: resync + reconciliation" `Quick
      test_controller_restart_resync;
    Alcotest.test_case "overload guard sheds at the watermark" `Quick
      test_overload_guard;
    Alcotest.test_case "crash runs are deterministic" `Quick
      test_crash_determinism;
    Alcotest.test_case "chaos sweep bytes match PR 6" `Quick
      test_chaos_sweep_bytes;
    Alcotest.test_case "outage sweep bytes match PR 6" `Quick
      test_outage_sweep_bytes;
    Alcotest.test_case "crash sweep bytes match golden" `Quick
      test_crash_sweep_bytes;
    Alcotest.test_case "policy sweep bytes match golden" `Quick
      test_policy_sweep_bytes;
    Alcotest.test_case "run names tell every chaos point apart" `Quick
      test_describe_names_every_point;
  ]
