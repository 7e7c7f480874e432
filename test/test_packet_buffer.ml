(* Tests for the packet-granularity buffer pool. *)

open Sdn_sim
open Sdn_switch

let frame tag = Bytes.of_string (Printf.sprintf "frame-%d" tag)

let make ?(capacity = 4) ?(expiry = 1.0) ?(reclaim = 0.01) engine =
  Packet_buffer.create engine ~capacity ~expiry ~reclaim_lag:reclaim ()

let in_use pool = Buffer_units.in_use (Packet_buffer.units pool)

let test_alloc_take () =
  let engine = Engine.create () in
  let pool = make engine in
  let id = Option.get (Packet_buffer.alloc pool ~frame:(frame 1)) in
  Alcotest.(check int) "in use" 1 (in_use pool);
  (match Packet_buffer.take pool id with
  | Packet_buffer.Taken f -> Alcotest.(check bytes) "frame" (frame 1) f
  | Packet_buffer.Unknown_id -> Alcotest.fail "expected frame");
  (* Double take is stale. *)
  (match Packet_buffer.take pool id with
  | Packet_buffer.Unknown_id -> ()
  | Packet_buffer.Taken _ -> Alcotest.fail "double take must fail");
  Alcotest.(check int) "stale counted" 1 (Packet_buffer.stale_takes pool)

let test_exhaustion_and_reclaim () =
  let engine = Engine.create () in
  let pool = make ~capacity:2 engine in
  let id1 = Option.get (Packet_buffer.alloc pool ~frame:(frame 1)) in
  let _id2 = Option.get (Packet_buffer.alloc pool ~frame:(frame 2)) in
  Alcotest.(check (option int32)) "full" None
    (Packet_buffer.alloc pool ~frame:(frame 3));
  Alcotest.(check int) "failure counted" 1 (Packet_buffer.alloc_failures pool);
  (* Taking frees the unit only after the reclaim lag. *)
  ignore (Packet_buffer.take pool id1);
  Alcotest.(check int) "still accounted during reclaim" 2
    (in_use pool);
  Alcotest.(check (option int32)) "still full during reclaim" None
    (Packet_buffer.alloc pool ~frame:(frame 4));
  (* Run just past the reclaim lag (but not to the 1 s expiry of the
     other unit). *)
  Engine.run ~until:0.05 engine;
  Alcotest.(check int) "reclaimed" 1 (in_use pool);
  Alcotest.(check bool) "allocatable again" true
    (Packet_buffer.alloc pool ~frame:(frame 5) <> None)

let test_stale_generation () =
  let engine = Engine.create () in
  let pool = make ~capacity:1 ~reclaim:0.001 engine in
  let id1 = Option.get (Packet_buffer.alloc pool ~frame:(frame 1)) in
  ignore (Packet_buffer.take pool id1);
  Engine.run engine;
  let id2 = Option.get (Packet_buffer.alloc pool ~frame:(frame 2)) in
  Alcotest.(check bool) "slot reused with new id" true (not (Int32.equal id1 id2));
  (* The old id must not release the new occupant. *)
  (match Packet_buffer.take pool id1 with
  | Packet_buffer.Unknown_id -> ()
  | Packet_buffer.Taken _ -> Alcotest.fail "stale id released new packet");
  match Packet_buffer.take pool id2 with
  | Packet_buffer.Taken f -> Alcotest.(check bytes) "new frame intact" (frame 2) f
  | Packet_buffer.Unknown_id -> Alcotest.fail "expected new frame"

let test_expiry_drops_unreleased () =
  let engine = Engine.create () in
  let pool = make ~capacity:2 ~expiry:0.5 engine in
  let id = Option.get (Packet_buffer.alloc pool ~frame:(frame 1)) in
  Engine.run engine;
  Alcotest.(check int) "expired" 1 (Packet_buffer.expired pool);
  Alcotest.(check int) "freed" 0 (in_use pool);
  match Packet_buffer.take pool id with
  | Packet_buffer.Unknown_id -> ()
  | Packet_buffer.Taken _ -> Alcotest.fail "expired packet must be gone"

let test_take_cancels_expiry () =
  let engine = Engine.create () in
  let pool = make ~capacity:2 ~expiry:0.5 engine in
  let id = Option.get (Packet_buffer.alloc pool ~frame:(frame 1)) in
  ignore (Engine.schedule_at engine 0.1 (fun () -> ignore (Packet_buffer.take pool id)));
  Engine.run engine;
  Alcotest.(check int) "no expiry after take" 0 (Packet_buffer.expired pool)

let test_occupancy_statistics () =
  let engine = Engine.create () in
  let pool = make ~capacity:8 ~reclaim:1e-9 engine in
  (* Occupy 2 units over [0, 1), then 0 afterwards. *)
  let id1 = Option.get (Packet_buffer.alloc pool ~frame:(frame 1)) in
  let id2 = Option.get (Packet_buffer.alloc pool ~frame:(frame 2)) in
  ignore
    (Engine.schedule_at engine 1.0 (fun () ->
         ignore (Packet_buffer.take pool id1);
         ignore (Packet_buffer.take pool id2)));
  ignore (Engine.schedule_at engine 2.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.(check int) "max" 2 (Buffer_units.max_in_use (Packet_buffer.units pool));
  let mean = Buffer_units.mean_in_use (Packet_buffer.units pool) ~until:2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~1 (got %g)" mean)
    true
    (abs_float (mean -. 1.0) < 0.01)

(* Regression: a cold wipe arriving while a slot is in its deferred
   reclaim must CANCEL the reclaim timer. Pre-fix the timer handle was
   discarded, so the stale callback fired against the slot's next
   occupant: a post-wipe re-allocation that was taken again had its
   reclaim lag silently shortened to whatever remained of the old
   timer. *)
let test_wipe_cancels_pending_reclaim () =
  let engine = Engine.create () in
  let pool = make ~capacity:1 ~reclaim:0.1 engine in
  (* First life of the slot: alloc + take at t=0 puts it in Reclaiming
     with a timer due at t=0.1. *)
  let id1 = Option.get (Packet_buffer.alloc pool ~frame:(frame 1)) in
  (match Packet_buffer.take pool id1 with
  | Packet_buffer.Taken _ -> ()
  | Packet_buffer.Unknown_id -> Alcotest.fail "first take must succeed");
  (* Wipe mid-reclaim at t=0.05, then immediately start the slot's
     second life and take it at t=0.06: its reclaim is due at 0.16. *)
  ignore
    (Engine.schedule_at engine 0.05 (fun () ->
         Alcotest.(check int) "wipe reclaims the in-flight release" 0
           (let _lost = Packet_buffer.wipe pool in
            in_use pool);
         let id2 = Option.get (Packet_buffer.alloc pool ~frame:(frame 2)) in
         ignore
           (Engine.schedule_at engine 0.06 (fun () ->
                match Packet_buffer.take pool id2 with
                | Packet_buffer.Taken _ -> ()
                | Packet_buffer.Unknown_id ->
                    Alcotest.fail "second take must succeed"))));
  (* At t=0.12 the STALE timer (due 0.1) has fired — or would have,
     pre-fix, releasing the slot 40 ms early. The second reclaim must
     still be counting down to 0.16. *)
  Engine.run ~until:0.12 engine;
  Alcotest.(check int) "second reclaim honours the full lag" 1
    (in_use pool);
  Alcotest.(check bool) "in_use never negative" true
    (in_use pool >= 0);
  Engine.run ~until:0.2 engine;
  Alcotest.(check int) "second reclaim completes on time" 0
    (in_use pool);
  Alcotest.(check bool) "slot allocatable after both lives" true
    (Packet_buffer.alloc pool ~frame:(frame 3) <> None)

let prop_never_exceeds_capacity =
  QCheck.Test.make ~name:"in_use never exceeds capacity" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) bool)
    (fun ops ->
      let engine = Engine.create () in
      let pool = make ~capacity:5 ~reclaim:1e-9 engine in
      let held = ref [] in
      let ok = ref true in
      List.iter
        (fun alloc ->
          (if alloc then begin
             match Packet_buffer.alloc pool ~frame:(frame 0) with
             | Some id -> held := id :: !held
             | None -> ()
           end
           else begin
             match !held with
             | id :: rest ->
                 held := rest;
                 ignore (Packet_buffer.take pool id)
             | [] -> ()
           end);
          if in_use pool > 5 then ok := false)
        ops;
      !ok)

let suite =
  [
    Alcotest.test_case "alloc/take basic" `Quick test_alloc_take;
    Alcotest.test_case "exhaustion and deferred reclaim" `Quick
      test_exhaustion_and_reclaim;
    Alcotest.test_case "stale generation ids" `Quick test_stale_generation;
    Alcotest.test_case "expiry drops unreleased packets" `Quick
      test_expiry_drops_unreleased;
    Alcotest.test_case "take cancels expiry" `Quick test_take_cancels_expiry;
    Alcotest.test_case "occupancy statistics" `Quick test_occupancy_statistics;
    Alcotest.test_case "wipe cancels pending reclaim" `Quick
      test_wipe_cancels_pending_reclaim;
    QCheck_alcotest.to_alcotest prop_never_exceeds_capacity;
  ]
