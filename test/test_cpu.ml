(* Tests for the multi-core service-queue CPU model. *)

open Sdn_sim

let test_single_job () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 () in
  let done_at = ref 0.0 in
  Cpu.submit cpu ~work_s:1e-3 (fun () -> done_at := Engine.now engine);
  Engine.run engine;
  Alcotest.(check (float 1e-12)) "service time" 1e-3 !done_at;
  Alcotest.(check int) "completed" 1 (Cpu.jobs_completed cpu)

let test_fifo_single_core () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 () in
  let finish = ref [] in
  Cpu.submit cpu ~work_s:1e-3 (fun () -> finish := ("a", Engine.now engine) :: !finish);
  Cpu.submit cpu ~work_s:2e-3 (fun () -> finish := ("b", Engine.now engine) :: !finish);
  Alcotest.(check int) "one waiting" 1 (Cpu.queue_length cpu);
  Alcotest.(check int) "one in service" 1 (Cpu.in_service cpu);
  Engine.run engine;
  match List.rev !finish with
  | [ ("a", t1); ("b", t2) ] ->
      Alcotest.(check (float 1e-12)) "a" 1e-3 t1;
      Alcotest.(check (float 1e-12)) "b queued behind a" 3e-3 t2
  | _ -> Alcotest.fail "expected both jobs"

let test_two_cores_parallel () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:2 () in
  let finish = ref [] in
  Cpu.submit cpu ~work_s:1e-3 (fun () -> finish := Engine.now engine :: !finish);
  Cpu.submit cpu ~work_s:1e-3 (fun () -> finish := Engine.now engine :: !finish);
  Engine.run engine;
  List.iter
    (fun t -> Alcotest.(check (float 1e-12)) "ran in parallel" 1e-3 t)
    !finish;
  Alcotest.(check int) "both done" 2 (List.length !finish)

let test_busy_integral () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:2 () in
  Cpu.submit cpu ~work_s:1e-3 (fun () -> ());
  Cpu.submit cpu ~work_s:1e-3 (fun () -> ());
  Cpu.submit cpu ~work_s:1e-3 (fun () -> ());
  Engine.run engine;
  (* 3 ms of work total, regardless of parallelism. *)
  Alcotest.(check (float 1e-9)) "busy core seconds" 3e-3
    (Cpu.busy_core_seconds cpu);
  (* Over the 2 ms wall window that is 150% of one core. *)
  let pct = 3e-3 /. Engine.now engine *. 100.0 in
  Alcotest.(check bool) "utilization can exceed 100%" true (pct > 100.0)

let test_utilization_percent_helper () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 () in
  let start = Engine.now engine in
  let integral_at_start = Cpu.busy_core_seconds cpu in
  Cpu.submit cpu ~work_s:2e-3 (fun () -> ());
  ignore (Engine.schedule_at engine 4e-3 (fun () -> ()));
  Engine.run engine;
  Alcotest.(check (float 1e-6)) "50% over window" 50.0
    (Cpu.utilization_percent cpu ~integral_at_start ~start)

let test_service_scale () =
  let engine = Engine.create () in
  (* Batching: everything after the first job runs at half cost. *)
  let scale ~queue_len = if queue_len > 0 then 0.5 else 1.0 in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 ~service_scale:scale () in
  let finish = ref [] in
  for _ = 1 to 3 do
    Cpu.submit cpu ~work_s:1e-3 (fun () -> finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  (* Job1 starts on an empty queue (1 ms); jobs 2 and 3 start with 1
     and 0 jobs still waiting respectively (0.5 ms and 1 ms). *)
  Alcotest.(check (float 1e-9)) "amortized finish" 2.5e-3 (Engine.now engine)

let test_noise_applied () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 ~noise:(fun () -> 2.0) () in
  Cpu.submit cpu ~work_s:1e-3 (fun () -> ());
  Engine.run engine;
  Alcotest.(check (float 1e-12)) "doubled" 2e-3 (Engine.now engine)

let test_max_queue_watermark () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 () in
  for _ = 1 to 5 do
    Cpu.submit cpu ~work_s:1e-4 (fun () -> ())
  done;
  Alcotest.(check int) "watermark" 4 (Cpu.max_queue_length cpu);
  Engine.run engine;
  Alcotest.(check int) "watermark persists" 4 (Cpu.max_queue_length cpu)

let test_finish_can_resubmit () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 () in
  let count = ref 0 in
  let rec job () =
    incr count;
    if !count < 5 then Cpu.submit cpu ~work_s:1e-4 job
  in
  Cpu.submit cpu ~work_s:1e-4 job;
  Engine.run engine;
  Alcotest.(check int) "chain completed" 5 !count

let test_rejects_bad_args () =
  let engine = Engine.create () in
  Alcotest.(check bool) "zero cores" true
    (try
       ignore (Cpu.create engine ~name:"bad" ~cores:0 ());
       false
     with Invalid_argument _ -> true);
  let cpu = Cpu.create engine ~name:"c" ~cores:1 () in
  Alcotest.(check bool) "negative work" true
    (try
       Cpu.submit cpu ~work_s:(-1.0) (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* A NaN work value used to pass the negative-work check and surface
   later, as an [Engine] exception inside whichever event started the
   job. It is refused at the call, and nothing is queued. *)
let test_rejects_nan_work () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~name:"c" ~cores:1 () in
  Cpu.submit cpu ~work_s:1e-3 (fun () -> ());
  Alcotest.(check bool) "NaN work" true
    (match Cpu.submit cpu ~work_s:Float.nan (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "nothing queued" 0 (Cpu.queue_length cpu);
  Engine.run engine;
  Alcotest.(check int) "the valid job ran" 1 (Cpu.jobs_completed cpu)

let suite =
  [
    Alcotest.test_case "single job service time" `Quick test_single_job;
    Alcotest.test_case "FIFO on one core" `Quick test_fifo_single_core;
    Alcotest.test_case "two cores run in parallel" `Quick test_two_cores_parallel;
    Alcotest.test_case "busy integral" `Quick test_busy_integral;
    Alcotest.test_case "utilization helper" `Quick test_utilization_percent_helper;
    Alcotest.test_case "service scale (batching)" `Quick test_service_scale;
    Alcotest.test_case "noise factor" `Quick test_noise_applied;
    Alcotest.test_case "queue watermark" `Quick test_max_queue_watermark;
    Alcotest.test_case "finish continuation resubmits" `Quick
      test_finish_can_resubmit;
    Alcotest.test_case "argument validation" `Quick test_rejects_bad_args;
    Alcotest.test_case "NaN work refused" `Quick test_rejects_nan_work;
  ]
