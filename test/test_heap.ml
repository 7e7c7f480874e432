(* Tests of the engine's event queue, a binary min-heap on (time, seq)
   over a registry of event ids that lives inside Engine, driven
   through Engine's public API: order after growth past the initial
   256 slots, reuse after a drain, cancellation at the root, the last
   slot and interior slots, ids that move or pass to another event,
   and the shrink back to the initial footprint after a burst. *)

open Sdn_sim

(* Schedule [(label, time)] pairs in list order; every event records
   its label when it runs. *)
let schedule_all engine log evs =
  List.map
    (fun (label, time) ->
      Engine.schedule_at engine time (fun () -> log := label :: !log))
    evs

let ran log = List.rev !log

let test_empty () =
  let engine = Engine.create () in
  Alcotest.(check int) "pending" 0 (Engine.pending engine);
  Alcotest.(check bool) "step" false (Engine.step engine);
  Alcotest.(check int) "step_batch" 0 (Engine.step_batch engine);
  Engine.run engine;
  Alcotest.(check int) "processed" 0 (Engine.processed engine);
  Alcotest.(check (float 0.0)) "clock" 0.0 (Engine.now engine)

(* A refused schedule leaves the queue exactly as it was. *)
let test_rejected_schedule_leaves_queue () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (schedule_all engine log [ (1, 1.0); (2, 2.0) ]);
  Engine.run ~until:1.5 engine;
  let rejected f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "past time" true
    (rejected (fun () -> Engine.schedule_at engine 1.0 (fun () -> log := 9 :: !log)));
  Alcotest.(check bool) "negative delay" true
    (rejected (fun () ->
         Engine.schedule engine ~delay:(-0.5) (fun () -> log := 9 :: !log)));
  Alcotest.(check int) "pending unchanged" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "dispatch" [ 1; 2 ] (ran log)

let test_ordering () =
  let engine = Engine.create () in
  let log = ref [] in
  let times = [ 5.0; 1.0; 4.0; 1.0; 3.0; 9.0; 0.0 ] in
  ignore (schedule_all engine log (List.mapi (fun i t -> (i, t)) times));
  Engine.run engine;
  Alcotest.(check (list int)) "by time, ties in schedule order"
    [ 6; 1; 3; 4; 2; 0; 5 ] (ran log);
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

(* A run limit looks at the earliest event without taking it; the
   limit itself is inclusive. *)
let test_limit_peeks () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (schedule_all engine log [ (2, 2.0); (1, 1.0) ]);
  Engine.run ~until:0.5 engine;
  Alcotest.(check int) "nothing taken" 2 (Engine.pending engine);
  Alcotest.(check (list int)) "nothing ran" [] (ran log);
  Engine.run ~until:1.0 engine;
  Alcotest.(check (list int)) "event at the limit runs" [ 1 ] (ran log);
  Alcotest.(check int) "later event stays" 1 (Engine.pending engine)

(* A permutation of 0 .. n-1 (7919 is prime and does not divide n). *)
let scrambled n = List.init n (fun i -> i * 7919 mod n)

let test_growth_beyond_capacity () =
  let engine = Engine.create () in
  let n = 5_000 in
  let log = ref [] in
  ignore
    (schedule_all engine log
       (List.map (fun k -> (k, float_of_int k)) (scrambled n)));
  Alcotest.(check int) "all queued" n (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "sorted after growth" (List.init n Fun.id)
    (ran log);
  Alcotest.(check int) "processed" n (Engine.processed engine)

let test_reuse_after_drain () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (schedule_all engine log
       (List.map (fun k -> (k, float_of_int k)) (scrambled 3_000)));
  Engine.run engine;
  log := [];
  let now = Engine.now engine in
  ignore (schedule_all engine log [ (3, now +. 3.0); (1, now +. 1.0); (2, now +. 2.0) ]);
  Alcotest.(check int) "pending after reuse" 3 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "dispatch after reuse" [ 1; 2; 3 ] (ran log);
  Alcotest.(check int) "processed" 3_003 (Engine.processed engine)

(* The engine's order is (time, schedule order), with the float order
   of [Float.compare]: -0.0 ties with 0.0. *)
let test_time_then_seq_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (schedule_all engine log
       [ (1, 2.0); (2, 1.0); (3, 2.0); (4, 0.0); (5, 1.0); (6, -0.0); (7, 2.0) ]);
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 4; 6; 2; 5; 1; 3; 7 ] (ran log)

(* The queue holds exactly the live events: [pending] counts them and
   exactly they run. *)
let test_queue_contents () =
  let engine = Engine.create () in
  let log = ref [] in
  let handles =
    schedule_all engine log (List.init 10 (fun i -> (i, float_of_int (10 - i))))
  in
  List.iteri (fun i h -> if i mod 3 = 0 then Engine.cancel h) handles;
  Alcotest.(check int) "pending" 6 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "live events" [ 8; 7; 5; 4; 2; 1 ] (ran log)

(* Scheduled in ascending time order, event k sits in heap slot k, so
   the cancels below hit the last slot, an interior slot whose refill
   sifts down, and the root. *)
let test_cancel_root_last_interior () =
  let engine = Engine.create () in
  let log = ref [] in
  let handles =
    Array.of_list
      (schedule_all engine log (List.init 10 (fun k -> (k, float_of_int (k + 1)))))
  in
  Engine.cancel handles.(9);
  Engine.cancel handles.(3);
  Engine.cancel handles.(0);
  Alcotest.(check int) "pending" 7 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "rest in order" [ 1; 2; 4; 5; 6; 7; 8 ] (ran log);
  (* Each event is scheduled no earlier than its parent slot, so the
     heap is laid out in this order. Cancelling 11 (slot 3) refills
     its slot with 7, which must sift up past 10, or 10 runs first. *)
  let layout = [ 0; 10; 1; 11; 12; 2; 3; 13; 14; 15; 16; 4; 5; 6; 7 ] in
  let engine = Engine.create () in
  let log = ref [] in
  let handles =
    schedule_all engine log (List.map (fun t -> (t, float_of_int t)) layout)
  in
  Engine.cancel (List.nth handles 3);
  Engine.run engine;
  Alcotest.(check (list int)) "refill sifted up"
    (List.sort Int.compare (List.filter (fun t -> t <> 11) layout))
    (ran log)

(* Each queued handle owns its own slot: cancelling one removes exactly
   that event, whichever slots the others have moved to. *)
let test_handles_distinct () =
  let engine = Engine.create () in
  let log = ref [] in
  let handles =
    schedule_all engine log (List.init 16 (fun i -> (i, float_of_int (16 - i))))
  in
  List.iteri
    (fun i h ->
      if i mod 2 = 1 then begin
        let before = Engine.pending engine in
        Engine.cancel h;
        Alcotest.(check int) "one fewer" (before - 1) (Engine.pending engine)
      end)
    handles;
  Engine.run engine;
  Alcotest.(check (list int)) "survivors"
    [ 14; 12; 10; 8; 6; 4; 2; 0 ] (ran log)

(* A fired or already-cancelled handle has no slot any more: cancelling
   it must not remove whichever event now occupies its old slot. *)
let test_stale_cancel_is_harmless () =
  let engine = Engine.create () in
  let log = ref [] in
  let handles = schedule_all engine log [ (1, 1.0); (2, 2.0); (3, 3.0) ] in
  Engine.run ~until:1.5 engine;
  Engine.cancel (List.hd handles);
  let third = List.nth handles 2 in
  Engine.cancel third;
  Engine.cancel third;
  Alcotest.(check int) "only the live cancel counted" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "dispatch" [ 1; 2 ] (ran log)

(* ---- The id registry ----

   A one-shot event leaves the registry when it runs or is cancelled,
   and the last registered event moves into the id it frees. *)

(* A's id passes to B once A has run: cancelling A, stale now, must
   leave B queued. When B runs, D moves into the id B frees, so
   cancelling B must spare D. *)
let test_stale_handle_spares_new_owner () =
  let engine = Engine.create () in
  let log = ref [] in
  let a = Engine.schedule_at engine 1.0 (fun () -> log := 1 :: !log) in
  Engine.run engine;
  let b = Engine.schedule_at engine 2.0 (fun () -> log := 2 :: !log) in
  Engine.cancel a;
  Alcotest.(check int) "B still pending" 1 (Engine.pending engine);
  let c = Engine.schedule_at engine 3.0 (fun () -> log := 3 :: !log) in
  let d = Engine.schedule_at engine 4.0 (fun () -> log := 4 :: !log) in
  Engine.run ~until:2.0 engine;
  Engine.cancel b;
  Engine.cancel c;
  Alcotest.(check int) "D still pending" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "A, B and D ran" [ 1; 2; 4 ] (ran log);
  Alcotest.(check bool) "D not cancelled" false (Engine.is_cancelled d)

(* A re-armable event registered after three timers moves to a lower
   id while queued when the first timer is cancelled, and another
   queued timer moves when the second one runs. The event keeps its
   reserved order, refuses a second arm while queued and arms again
   after it ran. *)
let test_rearmable_survives_releases () =
  let engine = Engine.create () in
  let log = ref [] in
  let timers = schedule_all engine log [ (1, 1.0); (2, 2.0); (3, 3.0) ] in
  let seq = Engine.reserve engine in
  ignore (schedule_all engine log [ (4, 2.0) ]);
  let ev = Engine.event engine (fun () -> log := 10 :: !log) in
  Engine.arm ev 2.0 ~seq;
  Engine.cancel (List.hd timers);
  let refused () =
    match Engine.arm_after ev ~delay:0.5 with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "second arm refused" true (refused ());
  Alcotest.(check int) "pending" 4 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "(time, seq) order" [ 2; 10; 4; 3 ] (ran log);
  Engine.arm_after ev ~delay:1.0;
  Alcotest.(check bool) "second arm refused after a re-arm" true (refused ());
  Engine.run engine;
  Alcotest.(check (list int)) "re-armed" [ 2; 10; 4; 3; 10 ] (ran log);
  Alcotest.(check (float 0.0)) "clock" 4.0 (Engine.now engine)

(* ---- Adaptive capacity ----

   The heap array halves whenever occupancy falls to a quarter, so a
   burst does not pin its high-water memory. [Obj.reachable_words]
   counts the engine, its heap array and everything still queued. *)

let burst = 100_000

let test_shrink_after_burst () =
  let fresh = Obj.reachable_words (Obj.repr (Engine.create ())) in
  let engine = Engine.create () in
  for i = 1 to burst do
    ignore (Engine.schedule engine ~delay:(float_of_int i) ignore)
  done;
  let peak = Obj.reachable_words (Obj.repr engine) in
  Alcotest.(check bool) "burst held" true (peak > fresh + burst);
  Engine.run engine;
  Alcotest.(check int) "processed" burst (Engine.processed engine);
  (* The clock now points at the last event's boxed time. *)
  Alcotest.(check bool) "back to a fresh engine's footprint" true
    (Obj.reachable_words (Obj.repr engine) <= fresh + 2)

let test_cancel_burst_resets_footprint () =
  let fresh = Obj.reachable_words (Obj.repr (Engine.create ())) in
  let engine = Engine.create () in
  let handles =
    List.init burst (fun i ->
        Engine.schedule engine ~delay:(float_of_int (burst - i)) ignore)
  in
  List.iter Engine.cancel handles;
  Alcotest.(check int) "empty" 0 (Engine.pending engine);
  Alcotest.(check int) "fresh footprint" fresh
    (Obj.reachable_words (Obj.repr engine))

(* ---- Properties ---- *)

(* Bursts of thousands of events, drains below a quarter of the grown
   capacity, wholesale random cancels, plans and re-armable events,
   against the sorted-list model of Test_engine. *)
let prop_burst_model =
  QCheck.Test.make ~name:"indexed remove keeps heap and model in step"
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 30)
        (pair (int_bound Test_engine.rearm_kind) (int_bound 200)))
    (fun ops -> Test_engine.run_script ops = Test_engine.model_script ops)

let prop_drains_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (int_bound 50))
    (fun times ->
      let engine = Engine.create () in
      let log = ref [] in
      let evs = List.mapi (fun i t -> (i, float_of_int t)) times in
      ignore (schedule_all engine log evs);
      Engine.run engine;
      let expect =
        List.map fst
          (List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) evs)
      in
      ran log = expect)

(* Single [step]s interleaved with schedules: each step runs the
   model's earliest (time, id). *)
let prop_interleaved =
  QCheck.Test.make ~name:"interleaved push/pop preserves min property"
    ~count:200
    QCheck.(list (pair bool (int_bound 20)))
    (fun ops ->
      let engine = Engine.create () in
      let log = ref [] and model = ref [] and next_id = ref 0 in
      List.for_all
        (fun (is_schedule, a) ->
          if is_schedule then begin
            let id = !next_id and delay = float_of_int a *. 0.25 in
            incr next_id;
            ignore
              (Engine.schedule engine ~delay (fun () -> log := id :: !log));
            model :=
              List.merge Test_engine.by_time
                [ (Engine.now engine +. delay, id) ]
                !model;
            true
          end
          else
            match (Engine.step engine, !model) with
            | false, [] -> true
            | true, (time, id) :: rest ->
                model := rest;
                List.hd !log = id && Float.equal (Engine.now engine) time
            | false, _ :: _ | true, [] -> false)
        ops)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pop_exn on empty raises" `Quick
      test_rejected_schedule_leaves_queue;
    Alcotest.test_case "pops in sorted order" `Quick test_ordering;
    Alcotest.test_case "peek does not remove" `Quick test_limit_peeks;
    Alcotest.test_case "grows beyond capacity" `Quick test_growth_beyond_capacity;
    Alcotest.test_case "clear then reuse" `Quick test_reuse_after_drain;
    Alcotest.test_case "custom comparator" `Quick test_time_then_seq_order;
    Alcotest.test_case "to_list contents" `Quick test_queue_contents;
    Alcotest.test_case "remove by tracked index" `Quick
      test_cancel_root_last_interior;
    Alcotest.test_case "indices live and distinct" `Quick test_handles_distinct;
    Alcotest.test_case "remove rejects bad index" `Quick
      test_stale_cancel_is_harmless;
    Alcotest.test_case "stale handle spares its id's new owner" `Quick
      test_stale_handle_spares_new_owner;
    Alcotest.test_case "re-armable event survives releases" `Quick
      test_rearmable_survives_releases;
    Alcotest.test_case "shrinks after burst" `Quick test_shrink_after_burst;
    Alcotest.test_case "clear resets capacity" `Quick
      test_cancel_burst_resets_footprint;
    QCheck_alcotest.to_alcotest prop_burst_model;
    QCheck_alcotest.to_alcotest prop_drains_sorted;
    QCheck_alcotest.to_alcotest prop_interleaved;
  ]
