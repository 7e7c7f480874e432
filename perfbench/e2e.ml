(* [run]: the end-to-end pass. Tracing off, one domain, one
   [Experiment.run] at a time, exactly as the figure and chaos sweeps
   call it. *)

open Sdn_core

(* What [Experiment.run] does before it runs the engine. *)
let set_up config =
  let scenario = Scenario.build config in
  let injections = Workload.injections_of config scenario.Scenario.traffic_rng in
  Sdn_traffic.Pktgen.schedule scenario.Scenario.engine
    ~inject:(fun ~in_port frame -> Scenario.inject scenario ~in_port frame)
    injections

(* One set-up pass over [configs], in host seconds. *)
let setup_pass configs =
  let t0 = Util.now_ns () in
  Array.iter set_up configs;
  (Util.now_ns () -. t0) /. 1e9

(* Drops are counted by the switch, deliveries at egress; every
   injected packet must be one or the other once the run settles.
   After an injected crash some flow-granularity chains are resumed
   but never released (README.md, limits): there the check is only
   that no packet was created, and such runs are counted. *)
let crashes (r : Experiment.result) = r.Experiment.config.Config.faults.Sdn_sim.Faults.crashes <> []

let settled (r : Experiment.result) = r.Experiment.packets_out + r.Experiment.packets_dropped

let conserved r =
  if crashes r then settled r <= r.Experiment.packets_in else settled r = r.Experiment.packets_in

(* Checked re-runs stop once they have taken this long. *)
let check_budget_ns = 2e9

let run (w : Workload.t) ~scale ~seed ~seconds =
  let first = w.Workload.pass scale ~seed 0 in
  (* Untimed warm-up: the first experiment grows the heap that every
     later one reuses. *)
  ignore (Experiment.run first.(0));
  (* Reference kernel passes, at least every quarter second between
     experiments, and (reference ms, set-up s) pairs measured back to
     back: three before the timed passes, then after any pass while
     pairs have taken under a tenth of the run, at least five in all. *)
  let refs = ref [] and last_ref = ref 0.0 in
  let sample_ref () =
    let r = Util.reference_ms () in
    refs := r :: !refs;
    last_ref := Util.now_ns ();
    r
  in
  let pairs = ref [] and pair_ns = ref 0.0 in
  let sample_pair () =
    let t0 = Util.now_ns () in
    let r = sample_ref () in
    pairs := (r, setup_pass first) :: !pairs;
    pair_ns := !pair_ns +. (Util.now_ns () -. t0)
  in
  for _ = 1 to 3 do
    sample_pair ()
  done;
  let times = ref [] in
  (* Per grid point: the fastest run of it in any pass, and the best
     event rate. Interference from other tenants only ever adds time,
     in slow stretches broken by quiet windows of 0.2-2 s; the best of
     several passes finds a quiet run of each point, where a median
     over one run's window cannot, as long as one experiment is
     shorter than those windows (workload.ml). *)
  let n_points = Array.length first in
  let best_s = Array.make n_points Float.infinity and best_rate = Array.make n_points 0.0 in
  let attempted = ref 0 and failed = ref 0 and stranded = ref 0 in
  let to_check = ref [] and digest_set = ref [] in
  let t_start = Util.now_ns () in
  let passes = ref 0 in
  while !passes = 0 || Util.now_ns () -. t_start < seconds *. 1e9 do
    Array.iteri
      (fun point config ->
        incr attempted;
        let t0 = Util.now_ns () in
        match Experiment.run config with
        | exception e ->
            incr failed;
            Printf.eprintf "%s: experiment raised %s\n%!" w.Workload.name (Printexc.to_string e)
        | r ->
            let dt = (Util.now_ns () -. t0) /. 1e9 in
            times := dt :: !times;
            best_s.(point) <- Float.min best_s.(point) dt;
            best_rate.(point) <-
              Float.max best_rate.(point) (float_of_int r.Experiment.sim_events /. dt);
            if !passes = 0 then digest_set := r :: !digest_set;
            if settled r < r.Experiment.packets_in && crashes r then incr stranded;
            if not (conserved r) then begin
              incr failed;
              Printf.eprintf "%s: packets not conserved (%d in, %d out, %d dropped)\n%!"
                w.Workload.name r.Experiment.packets_in r.Experiment.packets_out
                r.Experiment.packets_dropped
            end
            else if !attempted mod 8 = 1 then to_check := (config, r) :: !to_check;
            if Util.now_ns () -. !last_ref > 2.5e8 then ignore (sample_ref ()))
      (w.Workload.pass scale ~seed !passes);
    incr passes;
    if !pair_ns < 0.1 *. (Util.now_ns () -. t_start) then sample_pair ()
  done;
  while List.length !pairs < 5 do
    sample_pair ()
  done;
  let peak_rss_mb = Host.peak_rss_mb () in
  (* Every 8th experiment again, oldest first, with the
     protocol-invariant checker armed: it must report no violation and
     the same result. *)
  let t_check = Util.now_ns () in
  let checked = ref 0 in
  List.iter
    (fun (config, r) ->
      if !checked = 0 || Util.now_ns () -. t_check < check_budget_ns then begin
        incr checked;
        match Experiment.run { config with Config.check = true } with
        | exception e ->
            incr failed;
            Printf.eprintf "%s: checked re-run raised %s\n%!" w.Workload.name
              (Printexc.to_string e)
        | c ->
            let diff = Experiment.diff_result r c in
            if c.Experiment.check_violations > 0 || diff <> [] then begin
              incr failed;
              Printf.eprintf "%s: checked re-run: %d violation(s), differs in [%s]\n%!"
                w.Workload.name c.Experiment.check_violations (String.concat "; " diff)
            end
      end)
    (List.rev !to_check);
  let times = !times in
  let n = List.length times in
  (* Timings are normalised to the reference kernel's nominal speed:
     best-of-pass times by the run's fastest kernel pass, set-up by its
     back-to-back kernel pass. *)
  let ref_min = List.fold_left Float.min Float.infinity !refs in
  let scale_best = Util.reference_nominal_ms /. ref_min in
  let setup_s =
    Util.median (List.map (fun (r, s) -> s *. Util.reference_nominal_ms /. r) !pairs)
  in
  let exp_ms_best = Util.median (Array.to_list best_s) *. 1e3 in
  let measured = Array.for_all Float.is_finite best_s in
  let metrics =
    if not measured then []
    else
      [
        ("exp_ms_best", exp_ms_best *. scale_best);
        ("events_per_s", Util.median (Array.to_list best_rate) /. scale_best);
        ( "wall_s",
          Array.fold_left ( +. ) 0.0 best_s *. float_of_int w.Workload.grid_passes *. scale_best
        );
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb);
      ]
  in
  (* The plain median and, where at least ten samples lie beyond it,
     the 90th percentile over every timed experiment: what one run
     felt like, host noise included, so printed but not gated. *)
  let spread_notes =
    if n = 0 then []
    else
      ("exp_ms_p50", Printf.sprintf "%.4f ms" (Util.median times *. 1e3))
      ::
      (if n >= 100 then
         [ ("exp_ms_p90", Printf.sprintf "%.4f ms" (Util.quantile 0.9 times *. 1e3)) ]
       else [])
  in
  {
    Outcome.workload = w.Workload.name;
    mode = "run";
    seed;
    scale = Workload.scale_name scale;
    attempted = !attempted;
    failed = !failed;
    sim_digest = Outcome.digest_of_results (List.rev !digest_set);
    metrics;
    notes =
      [
        ("experiments", string_of_int n);
        ("passes", string_of_int !passes);
        ("checked_reruns", string_of_int !checked);
        ("crash_runs_with_stranded_packets", string_of_int !stranded);
        ("reference_ms_min", Printf.sprintf "%.4f (%d samples)" ref_min (List.length !refs));
        ("exp_ms_best_raw", Printf.sprintf "%.4f ms" exp_ms_best);
        ( "setup_s_raw",
          Printf.sprintf "%.4f s" (Util.median (List.map snd !pairs)) );
      ]
      @ spread_notes;
  }
