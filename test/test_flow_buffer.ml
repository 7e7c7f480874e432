(* Tests for the flow-granularity buffer: Algorithm 1 (shared buffer_id
   per flow, one request, timeout re-request) and Algorithm 2 (release
   the whole chain). *)

open Sdn_sim
open Sdn_net
open Sdn_switch

let key n =
  Flow_key.make ~proto:17 ~src_ip:(Ip.make 10 0 0 n) ~dst_ip:(Ip.make 10 0 0 2)
    ~src_port:(1000 + n) ~dst_port:9

let frame n = Bytes.of_string (Printf.sprintf "pkt-%d" n)

let make ?(capacity = 4) ?(reclaim = 0.001) ?(timeout = 0.05) ?(max_resends = 3)
    ?(on_resend = fun ~buffer_id:_ ~key:_ ~first_frame:_ -> ()) engine =
  Flow_buffer.create engine ~capacity ~reclaim_lag:reclaim
    ~resend_timeout:timeout ~max_resends ~on_resend ()

let units_in_use pool = Buffer_units.in_use (Flow_buffer.units pool)

let test_first_then_appended () =
  let engine = Engine.create () in
  let pool = make engine in
  let id =
    match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0) with
    | Flow_buffer.First id -> id
    | _ -> Alcotest.fail "expected First"
  in
  (* Algorithm 1 line 10-11: same flow's packets share the id, no new
     request. *)
  (match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 1) with
  | Flow_buffer.Appended id' ->
      Alcotest.(check int32) "same buffer_id" id id'
  | _ -> Alcotest.fail "expected Appended");
  Alcotest.(check int) "one unit" 1 (units_in_use pool);
  Alcotest.(check int) "two packets" 2 (Flow_buffer.packets_buffered pool);
  Alcotest.(check int) "one flow" 1 (Flow_buffer.flows_buffered pool)

let test_distinct_flows_distinct_units () =
  let engine = Engine.create () in
  let pool = make engine in
  let id1 =
    match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0) with
    | Flow_buffer.First id -> id
    | _ -> Alcotest.fail "First expected"
  in
  let id2 =
    match Flow_buffer.add pool ~key:(key 2) ~frame:(frame 0) with
    | Flow_buffer.First id -> id
    | _ -> Alcotest.fail "First expected"
  in
  Alcotest.(check bool) "different ids" true (not (Int32.equal id1 id2));
  Alcotest.(check int) "two units" 2 (units_in_use pool)

let test_take_all_in_order () =
  let engine = Engine.create () in
  let pool = make engine in
  let id =
    match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0) with
    | Flow_buffer.First id -> id
    | _ -> Alcotest.fail "First expected"
  in
  for i = 1 to 3 do
    ignore (Flow_buffer.add pool ~key:(key 1) ~frame:(frame i))
  done;
  (match Flow_buffer.take_all pool id with
  | Flow_buffer.Taken frames ->
      Alcotest.(check (list bytes)) "arrival order"
        [ frame 0; frame 1; frame 2; frame 3 ]
        frames
  | Flow_buffer.Unknown_id -> Alcotest.fail "expected frames");
  Alcotest.(check int) "no packets left" 0 (Flow_buffer.packets_buffered pool);
  (* Stale release of the same id. *)
  match Flow_buffer.take_all pool id with
  | Flow_buffer.Unknown_id -> ()
  | Flow_buffer.Taken _ -> Alcotest.fail "double release must fail"

let test_same_flow_after_release_gets_new_unit () =
  let engine = Engine.create () in
  let pool = make ~reclaim:1e-9 engine in
  let id1 =
    match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0) with
    | Flow_buffer.First id -> id
    | _ -> Alcotest.fail "First expected"
  in
  ignore (Flow_buffer.take_all pool id1);
  (* A new miss of the same flow is a fresh First (new request). *)
  match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 1) with
  | Flow_buffer.First id2 ->
      Alcotest.(check bool) "fresh id" true (not (Int32.equal id1 id2))
  | _ -> Alcotest.fail "expected a fresh First"

let test_no_space () =
  let engine = Engine.create () in
  let pool = make ~capacity:1 engine in
  ignore (Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0));
  (match Flow_buffer.add pool ~key:(key 2) ~frame:(frame 0) with
  | Flow_buffer.No_space -> ()
  | _ -> Alcotest.fail "expected No_space");
  Alcotest.(check int) "failure counted" 1 (Flow_buffer.alloc_failures pool);
  (* But the existing flow can still append. *)
  match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 1) with
  | Flow_buffer.Appended _ -> ()
  | _ -> Alcotest.fail "expected Appended despite full pool"

let test_timeout_resend () =
  let engine = Engine.create () in
  let resends = ref [] in
  let pool =
    make ~timeout:0.05 ~max_resends:2
      ~on_resend:(fun ~buffer_id ~key:_ ~first_frame ->
        resends := (Engine.now engine, buffer_id, first_frame) :: !resends)
      engine
  in
  let id =
    match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0) with
    | Flow_buffer.First id -> id
    | _ -> Alcotest.fail "First expected"
  in
  (* Nobody answers: expect 2 resends at 50 ms and 100 ms, then the
     chain is dropped at 150 ms. *)
  Engine.run engine;
  (match List.rev !resends with
  | [ (t1, id1, f1); (t2, id2, _) ] ->
      Alcotest.(check (float 1e-9)) "first resend" 0.05 t1;
      Alcotest.(check (float 1e-9)) "second resend" 0.10 t2;
      Alcotest.(check int32) "same buffer id" id id1;
      Alcotest.(check int32) "same buffer id again" id id2;
      Alcotest.(check bytes) "carries first frame" (frame 0) f1
  | l -> Alcotest.fail (Printf.sprintf "expected 2 resends, got %d" (List.length l)));
  Alcotest.(check int) "resends counted" 2 (Flow_buffer.resends pool);
  Alcotest.(check int) "chain dropped" 1 (Flow_buffer.drops pool);
  Alcotest.(check int) "unit freed" 0 (units_in_use pool)

let test_release_cancels_timer () =
  let engine = Engine.create () in
  let resends = ref 0 in
  let pool =
    make ~timeout:0.05 ~on_resend:(fun ~buffer_id:_ ~key:_ ~first_frame:_ -> incr resends)
      engine
  in
  let id =
    match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0) with
    | Flow_buffer.First id -> id
    | _ -> Alcotest.fail "First expected"
  in
  ignore (Engine.schedule_at engine 0.01 (fun () -> ignore (Flow_buffer.take_all pool id)));
  Engine.run engine;
  Alcotest.(check int) "no resends after release" 0 !resends

let test_occupancy_tracking () =
  let engine = Engine.create () in
  let pool = make ~capacity:8 ~reclaim:1e-9 ~timeout:10.0 engine in
  let ids =
    List.map
      (fun n ->
        match Flow_buffer.add pool ~key:(key n) ~frame:(frame n) with
        | Flow_buffer.First id -> id
        | _ -> Alcotest.fail "First expected")
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "max units" 3 (Buffer_units.max_in_use (Flow_buffer.units pool));
  List.iter (fun id -> ignore (Flow_buffer.take_all pool id)) ids;
  Engine.run ~until:0.1 engine;
  Alcotest.(check int) "drained" 0 (units_in_use pool)

let test_expiry_mid_chain () =
  (* A chain that exhausts its resend budget while packets are still
     being appended: the whole chain must be dropped exactly once, the
     unit freed, and a later miss of the same flow must start a fresh
     chain — no stranded packets, no double release. *)
  let engine = Engine.create () in
  let pool = make ~timeout:0.05 ~max_resends:2 engine in
  let id =
    match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0) with
    | Flow_buffer.First id -> id
    | _ -> Alcotest.fail "First expected"
  in
  (* Appends land between the re-requests (resends fire at 50 ms and
     100 ms; the drop at 150 ms). *)
  List.iter
    (fun (t, i) ->
      ignore
        (Engine.schedule_at engine t (fun () ->
             match Flow_buffer.add pool ~key:(key 1) ~frame:(frame i) with
             | Flow_buffer.Appended id' ->
                 Alcotest.(check int32) "appended to the live chain" id id'
             | _ -> Alcotest.fail "expected Appended")))
    [ (0.03, 1); (0.08, 2); (0.12, 3) ];
  Engine.run engine;
  Alcotest.(check int) "all four packets dropped together" 4
    (Flow_buffer.drops pool);
  Alcotest.(check int) "one flow abandoned" 1 (Flow_buffer.abandoned_flows pool);
  Alcotest.(check int) "unit freed" 0 (units_in_use pool);
  Alcotest.(check int) "no stranded packets" 0
    (Flow_buffer.packets_buffered pool);
  (* The expired id must not release anything. *)
  (match Flow_buffer.take_all pool id with
  | Flow_buffer.Unknown_id -> ()
  | Flow_buffer.Taken _ -> Alcotest.fail "release after expiry must fail");
  (* A new miss of the same flow is a fresh chain with a fresh id. *)
  match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 4) with
  | Flow_buffer.First id2 ->
      Alcotest.(check bool) "fresh id after expiry" true
        (not (Int32.equal id id2))
  | _ -> Alcotest.fail "expected a fresh First"

let test_freeze_stops_resends () =
  let engine = Engine.create () in
  let resends = ref 0 in
  let pool =
    make ~timeout:0.05 ~max_resends:5
      ~on_resend:(fun ~buffer_id:_ ~key:_ ~first_frame:_ -> incr resends)
      engine
  in
  ignore (Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0));
  ignore (Engine.schedule_at engine 0.01 (fun () -> Flow_buffer.freeze pool));
  (* While frozen, new chains accumulate without arming timers. *)
  ignore
    (Engine.schedule_at engine 0.02 (fun () ->
         ignore (Flow_buffer.add pool ~key:(key 2) ~frame:(frame 1))));
  Engine.run ~until:0.5 engine;
  Alcotest.(check int) "no resends while frozen" 0 !resends;
  Alcotest.(check bool) "frozen" true (Flow_buffer.is_frozen pool);
  Alcotest.(check int) "freeze counted" 1 (Flow_buffer.freezes pool);
  Alcotest.(check int) "one chain had its timer cancelled" 1
    (Flow_buffer.chains_frozen pool);
  (* Resume re-arms both held chains; each re-requests one timeout
     later. *)
  Flow_buffer.resume pool;
  Engine.run ~until:1.0 engine;
  Alcotest.(check bool) "thawed" false (Flow_buffer.is_frozen pool);
  Alcotest.(check int) "both chains re-armed" 2
    (Flow_buffer.chains_resumed pool);
  Alcotest.(check bool) "re-requests resumed" true (!resends > 0)

let test_resume_expires_spent_chains () =
  (* A chain whose budget was already spent before the outage must be
     expired at resume, not re-armed into a fourth life. *)
  let engine = Engine.create () in
  let pool = make ~timeout:0.05 ~max_resends:2 engine in
  ignore (Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0));
  (* Freeze after both resends have fired (t = 0.05, 0.10) but before
     the drop at t = 0.15. *)
  ignore (Engine.schedule_at engine 0.12 (fun () -> Flow_buffer.freeze pool));
  Engine.run ~until:0.3 engine;
  Alcotest.(check int) "chain survived the outage frozen" 1
    (units_in_use pool);
  Flow_buffer.resume pool;
  Alcotest.(check int) "expired at resume" 1
    (Flow_buffer.expired_on_resume pool);
  Alcotest.(check int) "counted as abandoned" 1
    (Flow_buffer.abandoned_flows pool);
  Alcotest.(check int) "unit freed" 0 (units_in_use pool);
  Alcotest.(check int) "nothing re-armed" 0 (Flow_buffer.chains_resumed pool)

let test_freeze_resume_idempotent () =
  let engine = Engine.create () in
  let pool = make engine in
  ignore (Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0));
  Flow_buffer.freeze pool;
  Flow_buffer.freeze pool;
  Alcotest.(check int) "one freeze" 1 (Flow_buffer.freezes pool);
  Alcotest.(check int) "one chain frozen" 1 (Flow_buffer.chains_frozen pool);
  Flow_buffer.resume pool;
  Flow_buffer.resume pool;
  Alcotest.(check int) "one chain resumed" 1 (Flow_buffer.chains_resumed pool)

(* Regression: a cold wipe arriving while a slot is in its deferred
   reclaim must cancel the reclaim timer, as Packet_buffer's does.
   Otherwise the stale callback fires against the slot's next chain
   and frees it before that chain's own reclaim lag has run. *)
let test_wipe_cancels_pending_reclaim () =
  let engine = Engine.create () in
  let pool = make ~capacity:1 ~reclaim:0.01 ~timeout:100.0 engine in
  let add_and_take n =
    match Flow_buffer.add pool ~key:(key n) ~frame:(frame n) with
    | Flow_buffer.First id -> (
        match Flow_buffer.take_all pool id with
        | Flow_buffer.Taken _ -> ()
        | Flow_buffer.Unknown_id -> Alcotest.fail "take_all must succeed")
    | Flow_buffer.Appended _ | Flow_buffer.No_space ->
        Alcotest.fail "expected a fresh unit"
  in
  (* First life: reclaim due at 10 ms. The wipe frees the slot at once;
     the second life starts and is taken at 5 ms, due at 15 ms. *)
  add_and_take 1;
  ignore (Flow_buffer.wipe pool);
  Alcotest.(check int) "wipe reclaims the in-flight release" 0
    (units_in_use pool);
  ignore (Engine.schedule_at engine 0.005 (fun () -> add_and_take 2));
  Engine.run ~until:0.012 engine;
  Alcotest.(check int) "second reclaim honours the full lag" 1
    (units_in_use pool);
  Engine.run ~until:0.02 engine;
  Alcotest.(check int) "second reclaim completes on time" 0
    (units_in_use pool)

let prop_chain_preserves_frames =
  QCheck.Test.make ~name:"take_all returns exactly the added frames" ~count:100
    QCheck.(int_range 1 40)
    (fun n ->
      let engine = Engine.create () in
      let pool = make ~capacity:2 ~timeout:100.0 engine in
      let id =
        match Flow_buffer.add pool ~key:(key 1) ~frame:(frame 0) with
        | Flow_buffer.First id -> id
        | _ -> assert false
      in
      for i = 1 to n - 1 do
        ignore (Flow_buffer.add pool ~key:(key 1) ~frame:(frame i))
      done;
      match Flow_buffer.take_all pool id with
      | Flow_buffer.Taken frames ->
          frames = List.init n frame
      | Flow_buffer.Unknown_id -> false)

let suite =
  [
    Alcotest.test_case "first then appended (Algorithm 1)" `Quick
      test_first_then_appended;
    Alcotest.test_case "distinct flows, distinct units" `Quick
      test_distinct_flows_distinct_units;
    Alcotest.test_case "take_all releases in order (Algorithm 2)" `Quick
      test_take_all_in_order;
    Alcotest.test_case "fresh unit after release" `Quick
      test_same_flow_after_release_gets_new_unit;
    Alcotest.test_case "no space fallback" `Quick test_no_space;
    Alcotest.test_case "timeout re-request then drop" `Quick test_timeout_resend;
    Alcotest.test_case "release cancels the timer" `Quick
      test_release_cancels_timer;
    Alcotest.test_case "occupancy tracking" `Quick test_occupancy_tracking;
    Alcotest.test_case "expiry mid-chain strands nothing" `Quick
      test_expiry_mid_chain;
    Alcotest.test_case "freeze stops re-requests" `Quick
      test_freeze_stops_resends;
    Alcotest.test_case "resume expires spent chains" `Quick
      test_resume_expires_spent_chains;
    Alcotest.test_case "freeze/resume idempotent" `Quick
      test_freeze_resume_idempotent;
    Alcotest.test_case "wipe cancels pending reclaim" `Quick
      test_wipe_cancels_pending_reclaim;
    QCheck_alcotest.to_alcotest prop_chain_preserves_frames;
  ]
