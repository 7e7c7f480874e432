(* Tests for the link model: serialization, FIFO, propagation,
   counters, capture. *)

open Sdn_sim

let make ?(bandwidth = 100e6) ?(propagation = 0.0) ?capture engine received =
  Link.create engine ~name:"test" ~bandwidth_bps:bandwidth
    ~propagation_s:propagation ?capture
    ~receiver:(fun payload ->
      received := (Engine.now engine, payload) :: !received)
    ()

let test_serialization_delay () =
  let engine = Engine.create () in
  let received = ref [] in
  let link = make ~bandwidth:100e6 ~propagation:0.0 engine received in
  (* 1000 bytes at 100 Mbps = 80 us. *)
  Link.send link ~size:1000 "a";
  Engine.run engine;
  match !received with
  | [ (t, "a") ] -> Alcotest.(check (float 1e-12)) "tx time" 80e-6 t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_propagation_added () =
  let engine = Engine.create () in
  let received = ref [] in
  let link = make ~bandwidth:100e6 ~propagation:50e-6 engine received in
  Link.send link ~size:1000 "a";
  Engine.run engine;
  match !received with
  | [ (t, _) ] -> Alcotest.(check (float 1e-12)) "tx + prop" 130e-6 t
  | _ -> Alcotest.fail "expected one delivery"

let test_fifo_back_to_back () =
  let engine = Engine.create () in
  let received = ref [] in
  let link = make ~bandwidth:100e6 engine received in
  Link.send link ~size:1000 "first";
  Link.send link ~size:1000 "second";
  Engine.run engine;
  match List.rev !received with
  | [ (t1, "first"); (t2, "second") ] ->
      Alcotest.(check (float 1e-12)) "first at 80us" 80e-6 t1;
      Alcotest.(check (float 1e-12)) "second serialized after first" 160e-6 t2
  | _ -> Alcotest.fail "expected two ordered deliveries"

let test_idle_gap_no_queueing () =
  let engine = Engine.create () in
  let received = ref [] in
  let link = make ~bandwidth:100e6 engine received in
  Link.send link ~size:1000 "a";
  ignore
    (Engine.schedule_at engine 1.0 (fun () -> Link.send link ~size:1000 "b"));
  Engine.run engine;
  match List.rev !received with
  | [ _; (t2, "b") ] ->
      Alcotest.(check (float 1e-9)) "no residual queueing" (1.0 +. 80e-6) t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_counters () =
  let engine = Engine.create () in
  let received = ref [] in
  let link = make engine received in
  Link.send link ~size:100 "x";
  Link.send link ~size:200 "y";
  Alcotest.(check int) "bytes" 300 (Link.bytes_sent link);
  Alcotest.(check int) "messages" 2 (Link.messages_sent link);
  Link.reset_counters link;
  Alcotest.(check int) "reset" 0 (Link.bytes_sent link)

let test_capture_sees_send_time () =
  let engine = Engine.create () in
  let received = ref [] in
  let captured = ref [] in
  let capture ~time ~size payload = captured := (time, size, payload) :: !captured in
  let link = make ~capture engine received in
  Link.send link ~size:1000 "a";
  Link.send link ~size:1000 "b";
  Engine.run engine;
  match List.rev !captured with
  | [ (t1, 1000, "a"); (t2, 1000, "b") ] ->
      Alcotest.(check (float 1e-12)) "first starts immediately" 0.0 t1;
      Alcotest.(check (float 1e-12)) "second starts when wire frees" 80e-6 t2
  | _ -> Alcotest.fail "expected two captures"

let test_backlog_tracking () =
  let engine = Engine.create () in
  let received = ref [] in
  let link = make engine received in
  Link.send link ~size:500 "a";
  Link.send link ~size:500 "b";
  Alcotest.(check int) "backlog while in flight" 1000 (Link.backlog_bytes link);
  Engine.run engine;
  Alcotest.(check int) "backlog drains" 0 (Link.backlog_bytes link)

let test_utilization () =
  let engine = Engine.create () in
  let received = ref [] in
  let link = make ~bandwidth:100e6 engine received in
  (* 12500 bytes = 1 ms of wire time. *)
  Link.send link ~size:12500 "a";
  Engine.run engine;
  let u = Link.utilization link ~since:0.0 ~until_:2e-3 in
  Alcotest.(check (float 1e-9)) "50% busy" 0.5 u

let test_rejects_bad_args () =
  let engine = Engine.create () in
  Alcotest.(check bool) "zero bandwidth" true
    (try
       ignore
         (Link.create engine ~name:"bad" ~bandwidth_bps:0.0 ~propagation_s:0.0
            ~receiver:(fun (_ : unit) -> ())
            ());
       false
     with Invalid_argument _ -> true);
  let received = ref [] in
  let link = make engine received in
  Alcotest.(check bool) "negative size" true
    (try
       Link.send link ~size:(-1) "x";
       false
     with Invalid_argument _ -> true)

(* The ring needs nondecreasing delivery times, and NaN compares false
   both ways, so it must be refused where it enters. *)
let test_rejects_nan_bandwidth () =
  let engine = Engine.create () in
  Alcotest.(check bool) "NaN bandwidth" true
    (match
       Link.create engine ~name:"bad" ~bandwidth_bps:Float.nan
         ~propagation_s:0.0
         ~receiver:(fun (_ : unit) -> ())
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_rejects_nan_propagation () =
  let engine = Engine.create () in
  Alcotest.(check bool) "NaN propagation" true
    (match
       Link.create engine ~name:"bad" ~bandwidth_bps:100e6
         ~propagation_s:Float.nan
         ~receiver:(fun (_ : unit) -> ())
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A jitter-free link queues only its oldest message, but [pending]
   still counts every message in flight, lost ones included. *)
let test_pending_counts_ring () =
  let engine = Engine.create () in
  let faults =
    Faults.create
      ~spec:{ Faults.none with Faults.loss_rate = 0.5 }
      ~rng:(Rng.of_int 3) ()
  in
  let received = ref 0 in
  let link =
    Link.create engine ~name:"lossy" ~bandwidth_bps:100e6 ~propagation_s:1e-3
      ~faults
      ~receiver:(fun () -> incr received)
      ()
  in
  for _ = 1 to 10 do
    Link.send link ~size:100 ()
  done;
  Alcotest.(check int) "every message pending" 10 (Engine.pending engine);
  let after_each = ref [] in
  while Engine.step engine do
    after_each := Engine.pending engine :: !after_each
  done;
  Alcotest.(check (list int)) "one fewer per delivery"
    [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ]
    (List.rev !after_each);
  Alcotest.(check int) "lost ones counted at delivery" 10
    (!received + Link.messages_lost link);
  Alcotest.(check bool) "some lost" true (Link.messages_lost link > 0)

(* Once delivered, a payload must not stay reachable from the link's
   ring: a slot that kept it would pin every payload the link carried
   until the slot is reused, and each would be promoted. *)
let test_delivered_payload_collectable () =
  let engine = Engine.create () in
  let link =
    Link.create engine ~name:"weak" ~bandwidth_bps:100e6 ~propagation_s:0.0
      ~receiver:(fun (_ : Bytes.t) -> ())
      ()
  in
  (* The first payload stays reachable by design: it fills the slots. *)
  Link.send link ~size:1 (Bytes.make 1 'f');
  let watched = Weak.create 1 in
  let send_watched () =
    let payload = Bytes.make 64 'p' in
    Weak.set watched 0 (Some payload);
    Link.send link ~size:64 payload
  in
  send_watched ();
  Engine.run engine;
  Gc.full_major ();
  Alcotest.(check bool) "delivered payload collected" false (Weak.check watched 0);
  (* The link itself is still live here: only its payload went. *)
  Alcotest.(check int) "link still in use" 2 (Link.messages_sent link)

let suite =
  [
    Alcotest.test_case "serialization delay" `Quick test_serialization_delay;
    Alcotest.test_case "propagation" `Quick test_propagation_added;
    Alcotest.test_case "FIFO back-to-back" `Quick test_fifo_back_to_back;
    Alcotest.test_case "idle gap resets queue" `Quick test_idle_gap_no_queueing;
    Alcotest.test_case "byte/message counters" `Quick test_counters;
    Alcotest.test_case "capture at send time" `Quick test_capture_sees_send_time;
    Alcotest.test_case "backlog tracking" `Quick test_backlog_tracking;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "argument validation" `Quick test_rejects_bad_args;
    Alcotest.test_case "NaN bandwidth refused" `Quick test_rejects_nan_bandwidth;
    Alcotest.test_case "NaN propagation refused" `Quick
      test_rejects_nan_propagation;
    Alcotest.test_case "pending counts the ring" `Quick test_pending_counts_ring;
    Alcotest.test_case "delivered payload collectable" `Quick
      test_delivered_payload_collectable;
  ]
