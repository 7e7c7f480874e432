(* Tests for the discrete-event engine. *)

open Sdn_sim

let test_runs_in_time_order () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule_at engine 3.0 (fun () -> order := 3 :: !order));
  ignore (Engine.schedule_at engine 1.0 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule_at engine 2.0 (fun () -> order := 2 :: !order));
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !order)

let test_fifo_tie_break () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at engine 1.0 (fun () -> order := i :: !order))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "insertion order at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_clock_advances () =
  let engine = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule_at engine 0.5 (fun () -> seen := Engine.now engine :: !seen));
  ignore (Engine.schedule_at engine 1.5 (fun () -> seen := Engine.now engine :: !seen));
  Engine.run engine;
  Alcotest.(check (list (float 1e-12))) "clock at event times" [ 0.5; 1.5 ]
    (List.rev !seen)

let test_schedule_relative () =
  let engine = Engine.create ~now:10.0 () in
  let fired_at = ref 0.0 in
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> fired_at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 1e-12)) "relative delay" 12.0 !fired_at

let test_rejects_past () =
  let engine = Engine.create ~now:5.0 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.schedule_at engine 4.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative delay raises" true
    (try
       ignore (Engine.schedule engine ~delay:(-1.0) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule_at engine 1.0 (fun () -> fired := true) in
  Engine.cancel handle;
  Alcotest.(check bool) "marked cancelled" true (Engine.is_cancelled handle);
  Engine.run engine;
  Alcotest.(check bool) "did not fire" false !fired

let test_events_schedule_events () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Engine.schedule engine ~delay:0.1 (fun () ->
             incr count;
             chain (n - 1)))
  in
  chain 10;
  Engine.run engine;
  Alcotest.(check int) "all chained events ran" 10 !count;
  Alcotest.(check (float 1e-9)) "clock" 1.0 (Engine.now engine)

let test_run_until () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule_at engine t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0 ];
  Engine.run ~until:2.5 engine;
  Alcotest.(check (list (float 1e-12))) "only events before limit" [ 1.0; 2.0 ]
    (List.rev !fired);
  Alcotest.(check (float 1e-12)) "clock advanced to limit" 2.5 (Engine.now engine);
  Alcotest.(check int) "one pending" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list (float 1e-12))) "rest runs later" [ 1.0; 2.0; 3.0 ]
    (List.rev !fired)

let test_run_until_idle_advances_clock () =
  let engine = Engine.create () in
  Engine.run ~until:7.0 engine;
  Alcotest.(check (float 1e-12)) "clock" 7.0 (Engine.now engine)

(* Regression: with events pending, a limit below [now] used to set
   the clock back to the limit, after which an event scheduled in the
   engine's past dispatched after events that had already run. *)
let test_run_until_never_moves_clock_back () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule_at engine t (fun () -> fired := t :: !fired)))
    [ 5.0; 6.0 ];
  Engine.run ~until:5.5 engine;
  Engine.run ~until:1.0 engine;
  Alcotest.(check (float 1e-12)) "clock stays at the earlier limit" 5.5
    (Engine.now engine);
  Alcotest.check_raises "the engine's past stays the past"
    (Invalid_argument "Engine.schedule_at: time 2 is not at or after now 5.5")
    (fun () -> ignore (Engine.schedule_at engine 2.0 (fun () -> ())));
  Engine.run engine;
  Alcotest.(check (list (float 1e-12))) "dispatch order" [ 5.0; 6.0 ]
    (List.rev !fired)

(* Regression: NaN passed both the past-time and the negative-delay
   guard, and the NaN event then dispatched ahead of events already
   queued. *)
let test_rejects_nan () =
  let engine = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule_at engine 1.0 (fun () -> fired := "queued" :: !fired));
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "NaN time" (fun () ->
      Engine.schedule_at engine Float.nan (fun () -> fired := "nan" :: !fired));
  rejects "NaN delay" (fun () ->
      Engine.schedule engine ~delay:Float.nan (fun () -> fired := "nan" :: !fired));
  Alcotest.(check int) "nothing queued" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list string)) "only the queued event ran" [ "queued" ]
    (List.rev !fired)

let test_processed_counter () =
  let engine = Engine.create () in
  for _ = 1 to 4 do
    ignore (Engine.schedule engine ~delay:0.1 (fun () -> ()))
  done;
  let cancelled = Engine.schedule engine ~delay:0.2 (fun () -> ()) in
  Engine.cancel cancelled;
  Engine.run engine;
  Alcotest.(check int) "processed excludes cancelled" 4 (Engine.processed engine)

let test_step () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "step runs one" true (Engine.step engine);
  Alcotest.(check bool) "then empty" false (Engine.step engine)

(* Regression: cancel used to only flag the handle, leaving the event
   (and its closure) in the heap until its time came. It must remove
   the event for real, so mass-cancellation releases queue memory. *)
let test_cancel_removes_from_queue () =
  let engine = Engine.create () in
  let handles =
    List.init 10_000 (fun i ->
        Engine.schedule engine ~delay:(1.0 +. float_of_int i) (fun () ->
            Alcotest.fail "cancelled event ran"))
  in
  Alcotest.(check int) "all queued" 10_000 (Engine.pending engine);
  List.iter Engine.cancel handles;
  Alcotest.(check int) "cancel removes for real" 0 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "nothing processed" 0 (Engine.processed engine)

let test_cancel_idempotent () =
  let engine = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at engine 1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.cancel h;
  Alcotest.(check int) "still empty" 0 (Engine.pending engine);
  let h2 = Engine.schedule_at engine 2.0 (fun () -> fired := true) in
  Engine.run engine;
  (* Cancelling after execution is a harmless no-op. *)
  Engine.cancel h2;
  Alcotest.(check bool) "executed event fired" true !fired

let test_step_batch_dispatches_equal_times () =
  let engine = Engine.create () in
  let ran = ref 0 in
  for _ = 1 to 3 do
    ignore (Engine.schedule_at engine 1.0 (fun () -> incr ran))
  done;
  for _ = 1 to 2 do
    ignore (Engine.schedule_at engine 2.0 (fun () -> incr ran))
  done;
  Alcotest.(check int) "first batch" 3 (Engine.step_batch engine);
  Alcotest.(check (float 1e-12)) "clock at batch time" 1.0 (Engine.now engine);
  Alcotest.(check int) "ran" 3 !ran;
  Alcotest.(check int) "second batch" 2 (Engine.step_batch engine);
  Alcotest.(check int) "empty batch" 0 (Engine.step_batch engine)

let test_step_batch_includes_spawned_same_time () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.schedule_at engine 1.0 (fun () ->
         order := `First :: !order;
         ignore
           (Engine.schedule engine ~delay:0.0 (fun () ->
                order := `Spawned :: !order))));
  ignore (Engine.schedule_at engine 1.0 (fun () -> order := `Second :: !order));
  let n = Engine.step_batch engine in
  Alcotest.(check int) "spawned same-time event joins the batch" 3 n;
  Alcotest.(check bool) "spawned runs after pre-scheduled siblings" true
    (List.rev !order = [ `First; `Second; `Spawned ])

let test_cancel_sibling_during_batch () =
  let engine = Engine.create () in
  let second_ran = ref false in
  let second = ref None in
  ignore
    (Engine.schedule_at engine 1.0 (fun () ->
         match !second with Some h -> Engine.cancel h | None -> ()));
  second :=
    Some (Engine.schedule_at engine 1.0 (fun () -> second_ran := true));
  Alcotest.(check int) "only the canceller ran" 1 (Engine.step_batch engine);
  Alcotest.(check bool) "cancelled sibling skipped" false !second_ran;
  Alcotest.(check int) "queue empty" 0 (Engine.pending engine)

(* {2 Plans} *)

(* A plan's events tie with other events as one [schedule_at] per
   index, in index order, at the call would: after events scheduled
   before it, before events scheduled after it. *)
let test_plan_ties_like_schedule_at () =
  let engine = Engine.create () in
  let log = ref [] in
  let note label () = log := label :: !log in
  ignore (Engine.schedule_at engine 1.0 (note "before@1"));
  ignore (Engine.schedule_at engine 2.0 (note "before@2"));
  Engine.schedule_plan engine [| 1.0; 1.0; 2.0 |] (fun i ->
      note (Printf.sprintf "plan%d" i) ();
      (* Scheduled while the plan runs: after its same-time siblings. *)
      if i = 0 then ignore (Engine.schedule engine ~delay:0.0 (note "spawned")));
  ignore (Engine.schedule_at engine 1.0 (note "after@1"));
  Engine.run engine;
  Alcotest.(check (list string)) "dispatch order"
    [ "before@1"; "plan0"; "plan1"; "after@1"; "spawned"; "before@2"; "plan2" ]
    (List.rev !log)

(* A refused plan queues nothing: the events already queued run as
   before, in the same tie order. *)
let test_plan_rejects_bad_times () =
  let engine = Engine.create () in
  let log = ref [] in
  let note label () = log := label :: !log in
  ignore (Engine.schedule_at engine 1.0 (note "a@1"));
  ignore (Engine.schedule_at engine 2.0 (note "a@2"));
  Engine.run ~until:1.0 engine;
  let rejects name times =
    Alcotest.(check bool) name true
      (match Engine.schedule_plan engine times (fun _ -> note "planned" ()) with
      | () -> false
      | exception Invalid_argument _ -> true);
    Alcotest.(check int) (name ^ ": pending") 1 (Engine.pending engine);
    Alcotest.(check int) (name ^ ": processed") 1 (Engine.processed engine)
  in
  rejects "unsorted" [| 2.0; 1.5 |];
  rejects "NaN first" [| Float.nan; 2.0 |];
  rejects "NaN later" [| 2.0; Float.nan |];
  rejects "before now" [| 0.5; 2.0 |];
  ignore (Engine.schedule_at engine 2.0 (note "b@2"));
  Engine.run engine;
  Alcotest.(check (list string)) "only the scheduled events ran"
    [ "a@1"; "a@2"; "b@2" ] (List.rev !log)

let test_plan_pending_counts_backlog () =
  let engine = Engine.create () in
  Engine.schedule_plan engine [| 1.0; 2.0; 2.0; 3.0 |] ignore;
  Engine.schedule_plan engine [||] ignore;
  ignore (Engine.schedule_at engine 2.5 ignore);
  Alcotest.(check int) "queued and planned" 5 (Engine.pending engine);
  let pending_after_each = ref [] in
  while Engine.step engine do
    pending_after_each := Engine.pending engine :: !pending_after_each
  done;
  Alcotest.(check (list int)) "one fewer per event" [ 4; 3; 2; 1; 0 ]
    (List.rev !pending_after_each);
  Alcotest.(check int) "processed" 5 (Engine.processed engine)

let test_plan_run_until_keeps_rest () =
  let engine = Engine.create () in
  let ran = ref [] in
  Engine.schedule_plan engine [| 1.0; 2.0; 3.0; 4.0 |] (fun i -> ran := i :: !ran);
  Engine.run ~until:2.5 engine;
  Alcotest.(check (list int)) "events up to the limit" [ 0; 1 ] (List.rev !ran);
  Alcotest.(check (float 1e-12)) "clock at the limit" 2.5 (Engine.now engine);
  Alcotest.(check int) "rest pending" 2 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "rest runs later" [ 0; 1; 2; 3 ] (List.rev !ran)

(* As when each event was scheduled on its own, an action that raises
   leaves the later events queued. *)
let test_plan_raise_keeps_successor () =
  let engine = Engine.create () in
  let ran = ref [] in
  Engine.schedule_plan engine [| 1.0; 2.0; 3.0 |] (fun i ->
      ran := i :: !ran;
      if i = 1 then raise Exit);
  Alcotest.check_raises "the action's exception escapes" Exit (fun () ->
      Engine.run engine);
  Alcotest.(check (float 1e-12)) "clock at the failed event" 2.0
    (Engine.now engine);
  Alcotest.(check int) "successor still pending" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "successor runs" [ 0; 1; 2 ] (List.rev !ran);
  Alcotest.(check int) "processed" 3 (Engine.processed engine)

(* Randomized schedule/cancel/step_batch scripts against a
   sorted-list reference model. Op encoding: (kind, a) with kind 0-2 =
   schedule at now + scaled delay (three delay scales so events share
   timestamps, sit close together, and spread far apart), kind 3 =
   cancel the a-th oldest handle (fired and cancelled ones included, so
   late and repeated cancels are exercised), kind 4 = step_batch. The
   burst kinds grow and shrink the queue by thousands at a time:
   kind 5 = schedule [burst_size a] events at once, kind 6 = step_batch
   until at most [a] events are pending, kind 7 = cancel every handle
   [culled ~a] picks. Kind 8 = [Engine.schedule_plan] of [burst_size a]
   events at [plan_delays] past now; plan events have no handles, so
   kinds 3 and 7 skip their ids. Kind 9 steps re-armable event
   [a mod rearm_events] ({!Engine.event}, made at its first op, so it
   registers among one-shot events that come and go): an idle one
   reserves an insertion order ({!Engine.reserve}), pending from then
   on; a reserved one is armed with it at [burst_delay a] past now; a
   queued one must refuse a second arm. A reserved order not armed by
   the end stays pending, so kind 6 also stops when the queue is empty.
   Both sides produce the dispatch trace [(id, time)] and a
   [(pending, processed)] snapshot after every op, then drain. *)
let scale_of_kind = function 0 -> 3.3e-7 | 1 -> 1.05e-4 | _ -> 2.7e-2

let burst_size a = 500 + (20 * a)

(* Spread over 4,093 steps of 10 µs, so a burst's events both collide
   and land between events already queued. *)
let burst_delay id = float_of_int (id * 7919 mod 4093) *. 1e-5

let culled ~a id = ((id * 31) + a) mod 3 = 0

let plan_kind = 8

let rearm_kind = 9

let rearm_events = 2

(* A plan's delays: the burst delays of the ids it takes, sorted, so
   they collide with each other and with events already queued. *)
let plan_delays ~first a =
  List.sort Float.compare
    (List.init (burst_size a) (fun i -> burst_delay (first + i)))

(* Scripts for the two model properties below: single-event kinds 0-4
   and at most one plan, at a random position. A plan adds hundreds of
   events that one step_batch barely drains, and every later schedule
   copies the model's list up to its slot, so more plans would make
   long scripts crawl. Test_heap's burst property runs several plans
   at once on short scripts. *)
let script =
  let with_plan ops = function
    | None -> ops
    | Some (pos, a) ->
        List.filteri (fun i _ -> i < pos) ops
        @ ((plan_kind, a) :: List.filteri (fun i _ -> i >= pos) ops)
  in
  QCheck.(
    set_gen
      Gen.(
        list (pair (int_bound 4) (int_bound 200)) >>= fun ops ->
        opt (pair (int_bound (List.length ops)) (int_bound 200))
        >|= with_plan ops)
      (list (pair (int_bound plan_kind) (int_bound 200))))

let run_script ?(scale_of_kind = scale_of_kind) ops =
  let engine = Engine.create () in
  let trace = ref [] and counts = ref [] in
  let handles = Hashtbl.create 64 in
  let next_id = ref 0 in
  let schedule delay =
    let id = !next_id in
    incr next_id;
    Hashtbl.replace handles id
      (Engine.schedule engine ~delay (fun () ->
           trace := (id, Engine.now engine) :: !trace))
  in
  let cancel id = Option.iter Engine.cancel (Hashtbl.find_opt handles id) in
  (* Re-armable event [r]: its id while reserved or queued, its
     reserved order until armed ([-1] after), and whether it is
     queued. *)
  let rearms = Array.make rearm_events None in
  let rearm_id = Array.make rearm_events 0 in
  let rearm_seq = Array.make rearm_events (-1) in
  let queued = Array.make rearm_events false in
  let rearm r =
    match rearms.(r) with
    | Some ev -> ev
    | None ->
        let ev =
          Engine.event engine (fun () ->
              queued.(r) <- false;
              trace := (rearm_id.(r), Engine.now engine) :: !trace)
        in
        rearms.(r) <- Some ev;
        ev
  in
  List.iter
    (fun (kind, a) ->
      (match kind with
      | 0 | 1 | 2 -> schedule (float_of_int a *. scale_of_kind kind)
      | 3 -> if !next_id > 0 then cancel (a mod !next_id)
      | 4 -> ignore (Engine.step_batch engine)
      | 5 ->
          for _ = 1 to burst_size a do
            schedule (burst_delay !next_id)
          done
      | 6 ->
          while Engine.pending engine > a && Engine.step_batch engine > 0 do
            ()
          done
      | 7 ->
          for id = 0 to !next_id - 1 do
            if culled ~a id then cancel id
          done
      | 9 ->
          let r = a mod rearm_events in
          let ev = rearm r in
          if queued.(r) then begin
            match Engine.arm_after ev ~delay:0.0 with
            | () -> failwith "Engine.arm_after queued a queued event"
            | exception Invalid_argument _ -> ()
          end
          else if rearm_seq.(r) >= 0 then begin
            Engine.arm ev (Engine.now engine +. burst_delay a) ~seq:rearm_seq.(r);
            rearm_seq.(r) <- -1;
            queued.(r) <- true
          end
          else begin
            rearm_id.(r) <- !next_id;
            incr next_id;
            rearm_seq.(r) <- Engine.reserve engine
          end
      | _ ->
          let first = !next_id and now = Engine.now engine in
          let times =
            Array.of_list
              (List.map (fun d -> now +. d) (plan_delays ~first a))
          in
          next_id := first + Array.length times;
          Engine.schedule_plan engine times (fun i ->
              trace := (first + i, Engine.now engine) :: !trace));
      counts := (Engine.pending engine, Engine.processed engine) :: !counts)
    ops;
  Engine.run engine;
  (List.rev !trace, List.rev !counts, Engine.processed engine)

(* The reference: live events as a list kept sorted by (time, id) —
   ids are assigned in schedule order, so they double as the engine's
   tie-breaking sequence numbers. *)
let by_time (t1, i1) (t2, i2) =
  let c = Float.compare t1 t2 in
  if c <> 0 then c else Int.compare i1 i2

type rearm = Idle | Reserved of int | Queued

let model_script ?(scale_of_kind = scale_of_kind) ops =
  let clock = ref 0.0 and processed = ref 0 in
  let live = ref [] and n_live = ref 0 and trace = ref [] and counts = ref [] in
  (* Ids of plan and re-armable events, which have no handle. *)
  let n_scheduled = ref 0 and handleless = Hashtbl.create 64 in
  let rearms = Array.make rearm_events Idle and rearm_of = Hashtbl.create 8 in
  let add delays =
    let evs =
      List.map
        (fun delay ->
          let ev = (!clock +. delay, !n_scheduled) in
          incr n_scheduled;
          ev)
        delays
    in
    live := List.merge by_time (List.sort by_time evs) !live;
    n_live := !n_live + List.length evs
  in
  (* Only events scheduled one by one can be cancelled. A cancel that
     hits nothing live copies nothing. *)
  let drop pred =
    let hit (_, id) = pred id && not (Hashtbl.mem handleless id) in
    if List.exists hit !live then begin
      let gone, kept = List.partition hit !live in
      live := kept;
      n_live := !n_live - List.length gone
    end
  in
  let dispatch (time, id) =
    clock := time;
    incr processed;
    decr n_live;
    Option.iter (fun r -> rearms.(r) <- Idle) (Hashtbl.find_opt rearm_of id);
    trace := (id, time) :: !trace
  in
  (* [live] is sorted, so the batch is its same-time prefix. *)
  let step_batch () =
    match !live with
    | [] -> ()
    | (time, _) :: _ ->
        let rec go = function
          | ((t, _) as ev) :: rest when Float.equal t time ->
              dispatch ev;
              go rest
          | rest -> live := rest
        in
        go !live
  in
  List.iter
    (fun (kind, a) ->
      (match kind with
      | 0 | 1 | 2 -> add [ float_of_int a *. scale_of_kind kind ]
      | 3 ->
          if !n_scheduled > 0 then begin
            let victim = a mod !n_scheduled in
            drop (fun id -> id = victim)
          end
      | 4 -> step_batch ()
      | 5 -> add (List.init (burst_size a) (fun i -> burst_delay (!n_scheduled + i)))
      | 6 ->
          while !n_live > a && !live <> [] do
            step_batch ()
          done
      | 7 -> drop (culled ~a)
      | 9 -> (
          let r = a mod rearm_events in
          match rearms.(r) with
          | Queued -> ()
          | Reserved id ->
              live := List.merge by_time [ (!clock +. burst_delay a, id) ] !live;
              rearms.(r) <- Queued
          | Idle ->
              let id = !n_scheduled in
              incr n_scheduled;
              incr n_live;
              Hashtbl.replace handleless id ();
              Hashtbl.replace rearm_of id r;
              rearms.(r) <- Reserved id)
      | _ ->
          let first = !n_scheduled in
          let delays = plan_delays ~first a in
          List.iteri
            (fun i _ -> Hashtbl.replace handleless (first + i) ())
            delays;
          add delays);
      counts := (!n_live, !processed) :: !counts)
    ops;
  while !live <> [] do
    step_batch ()
  done;
  (List.rev !trace, List.rev !counts, !processed)

let prop_matches_model =
  QCheck.Test.make ~name:"heap matches sorted-list model" ~count:300
    script
    (fun ops ->
      run_script ops = model_script ops)

(* {2 Timer-wheel-era edge cases}

   These cases were first written against a hierarchical timer wheel
   that has since been removed; they pin the same edge cases on the
   heap: timestamps closer than a microsecond, times spread from 1 µs
   to 1e5 s, a run limit parked between the clock and the next event,
   and a batch that keeps going past a cancelled sibling. *)

let test_sub_microsecond_ordering () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule_at engine 1.0000007 (fun () -> order := 3 :: !order));
  ignore (Engine.schedule_at engine 1.0000001 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule_at engine 1.0000004 (fun () -> order := 2 :: !order));
  Engine.run engine;
  Alcotest.(check (list int)) "sub-microsecond times dispatch in time order"
    [ 1; 2; 3 ] (List.rev !order)

let test_wide_range_ordering () =
  let engine = Engine.create () in
  let times = [ 1e-6; 2.55e-4; 6.5e-2; 1.67e1; 4.2e3; 6.0e3; 1.0e5 ] in
  let order = ref [] in
  List.iteri
    (fun i time ->
      ignore (Engine.schedule_at engine time (fun () -> order := i :: !order)))
    (List.rev times);
  Engine.run engine;
  Alcotest.(check (list int)) "times from 1 µs to 1e5 s dispatch in order"
    [ 6; 5; 4; 3; 2; 1; 0 ] (List.rev !order);
  Alcotest.(check (float 1e-9)) "clock at last event" 1.0e5 (Engine.now engine)

let test_run_until_then_late_add () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule_at engine t (fun () -> fired := t :: !fired)))
    [ 0.5; 1.5; 2.5 ];
  Engine.run ~until:2.0 engine;
  Alcotest.(check (list (float 1e-12))) "only events up to limit" [ 0.5; 1.5 ]
    (List.rev !fired);
  Alcotest.(check (float 1e-12)) "clock parked at limit" 2.0 (Engine.now engine);
  Alcotest.(check int) "later event still queued" 1 (Engine.pending engine);
  (* An event added between the parked clock and the queued one must
     still fire first. *)
  ignore (Engine.schedule_at engine 2.25 (fun () -> fired := 2.25 :: !fired));
  Engine.run engine;
  Alcotest.(check (list (float 1e-12))) "late add dispatches in order"
    [ 0.5; 1.5; 2.25; 2.5 ] (List.rev !fired)

let test_cancel_sibling_keeps_batch_going () =
  let engine = Engine.create () in
  let fired = ref [] in
  let sibling = ref None in
  ignore
    (Engine.schedule_at engine 1.0 (fun () ->
         fired := "killer" :: !fired;
         Option.iter Engine.cancel !sibling));
  sibling :=
    Some (Engine.schedule_at engine 1.0 (fun () -> fired := "victim" :: !fired));
  ignore (Engine.schedule_at engine 1.0 (fun () -> fired := "survivor" :: !fired));
  ignore (Engine.step_batch engine);
  Alcotest.(check (list string)) "victim skipped" [ "killer"; "survivor" ]
    (List.rev !fired);
  Alcotest.(check int) "no pending left" 0 (Engine.pending engine)

(* The model property again, with delay scales up to tens of seconds
   so a script's clock reaches thousands of seconds, where adding a
   sub-microsecond delay can round to an existing timestamp and the
   (time, seq) tie-break decides the order. *)
let wide_scale_of_kind = function 0 -> 3.3e-7 | 1 -> 2.7e-2 | _ -> 4.3e1

let prop_matches_model_wide_range =
  QCheck.Test.make ~name:"wheel and heap dispatch identical traces" ~count:300
    script
    (fun ops ->
      run_script ~scale_of_kind:wide_scale_of_kind ops
      = model_script ~scale_of_kind:wide_scale_of_kind ops)

let timer_wheel_era_suite =
  [
    Alcotest.test_case "runs in time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "FIFO tie break" `Quick test_fifo_tie_break;
    Alcotest.test_case "sub-tick ordering" `Quick test_sub_microsecond_ordering;
    Alcotest.test_case "cross-level and overflow ordering" `Quick
      test_wide_range_ordering;
    Alcotest.test_case "10k cancel leaves queue empty" `Quick
      test_cancel_removes_from_queue;
    Alcotest.test_case "cancel is idempotent" `Quick test_cancel_idempotent;
    Alcotest.test_case "run until limit" `Quick test_run_until_then_late_add;
    Alcotest.test_case "step_batch includes spawned same-time events" `Quick
      test_step_batch_includes_spawned_same_time;
    Alcotest.test_case "cancel sibling during batch" `Quick
      test_cancel_sibling_keeps_batch_going;
    Alcotest.test_case "chained events" `Quick test_events_schedule_events;
    QCheck_alcotest.to_alcotest prop_matches_model_wide_range;
  ]

let suite =
  [
    Alcotest.test_case "time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "FIFO tie-break" `Quick test_fifo_tie_break;
    Alcotest.test_case "clock advances to event times" `Quick test_clock_advances;
    Alcotest.test_case "relative scheduling" `Quick test_schedule_relative;
    Alcotest.test_case "rejects past times" `Quick test_rejects_past;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "events schedule events" `Quick test_events_schedule_events;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "run ~until with empty queue" `Quick
      test_run_until_idle_advances_clock;
    Alcotest.test_case "run ~until never moves the clock back" `Quick
      test_run_until_never_moves_clock_back;
    Alcotest.test_case "rejects NaN times" `Quick test_rejects_nan;
    Alcotest.test_case "processed counter" `Quick test_processed_counter;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "cancel removes from queue" `Quick
      test_cancel_removes_from_queue;
    Alcotest.test_case "cancel is idempotent" `Quick test_cancel_idempotent;
    Alcotest.test_case "step_batch dispatches equal times" `Quick
      test_step_batch_dispatches_equal_times;
    Alcotest.test_case "step_batch includes spawned same-time events" `Quick
      test_step_batch_includes_spawned_same_time;
    Alcotest.test_case "cancel sibling during batch" `Quick
      test_cancel_sibling_during_batch;
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "plan ties like schedule_at" `Quick
      test_plan_ties_like_schedule_at;
    Alcotest.test_case "plan rejects bad times" `Quick
      test_plan_rejects_bad_times;
    Alcotest.test_case "plan pending counts backlog" `Quick
      test_plan_pending_counts_backlog;
    Alcotest.test_case "plan run ~until keeps the rest" `Quick
      test_plan_run_until_keeps_rest;
    Alcotest.test_case "plan action raising keeps successor" `Quick
      test_plan_raise_keeps_successor;
  ]
