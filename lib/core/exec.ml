(* The one funnel every sweep's replications run through. Parallelism
   lives here and in Sdn_sim.Task_pool; the sweeps themselves only
   build configuration arrays and read each result's [config] back. *)

open Sdn_sim

let describe i (c : Config.t) =
  Printf.sprintf "task %d (%s, rate %g Mbps, seed %d, %s, faults %s)" i
    (Config.label c) c.Config.rate_mbps c.Config.seed
    (Sdn_switch.Session.fail_mode_to_string c.Config.fail_mode)
    (Faults.spec_to_string c.Config.faults)

(* Deterministic sample for the sequential replay: spread by the seed
   so different sweeps probe different grid positions, identical across
   runs of the same sweep. 7919 (a prime) decorrelates adjacent seeds. *)
let replay_index configs =
  let n = Array.length configs in
  if n = 0 then 0 else abs (configs.(0).Config.seed * 7919) mod n

(* Re-run task [idx] in the calling domain and compare field-for-field.
   On mismatch, record a parallel-equivalence violation on that task's
   result so it reaches the CLI's --check epilogue; on agreement leave
   the array untouched (clean parallel output must stay byte-identical
   to sequential output). *)
let cross_check configs (results : Experiment.result array) =
  let idx = replay_index configs in
  let replay = Experiment.run configs.(idx) in
  match Experiment.diff_result results.(idx) replay with
  | [] -> ()
  | mismatched_fields ->
      let ledger = Sdn_check.Check.create () in
      Sdn_check.Check.note_parallel_replay ledger ~time:0.0
        ~task:(describe idx configs.(idx))
        ~equal:false
        ~detail:(String.concat ", " mismatched_fields);
      let r = results.(idx) in
      let report = Sdn_check.Check.report ledger in
      results.(idx) <-
        {
          r with
          Experiment.check_violations = r.Experiment.check_violations + 1;
          check_report =
            Some
              (match r.Experiment.check_report with
              | None -> report
              | Some existing -> existing ^ report);
        }

let run_experiments ~jobs configs =
  let tasks = Array.length configs in
  let results =
    Task_pool.run ~jobs ~tasks (fun i -> Experiment.run configs.(i))
  in
  if jobs > 1 && tasks > 0 && Array.exists (fun c -> c.Config.check) configs
  then cross_check configs results;
  results
