(* Tests for the control-session lifecycle: echo-driven liveness,
   outage detection, false-positive accounting and reconnect backoff,
   plus the integration-level guarantee that delay jitter alone never
   trips the detector. *)

open Sdn_sim
open Sdn_switch
open Sdn_core

let config ?(interval = 0.01) ?(misses = 3) () =
  { Session.echo_interval = interval; echo_misses = misses; reconnect_delay = 0.05 }

(* A session wired to a test harness: [send_echo] is the only wire, and
   the session itself is threaded back through a ref so responders can
   schedule replies. *)
let make ?interval ?misses ?(on_down = fun () -> ())
    ?(on_restore = fun ~downtime:_ -> ()) engine ~send_echo =
  let t_ref = ref None in
  let xid = ref 0l in
  let fresh_xid () =
    xid := Int32.add !xid 1l;
    !xid
  in
  let t =
    Session.create engine
      ~config:(config ?interval ?misses ())
      ~fresh_xid
      ~send_echo:(fun ~xid -> send_echo (Option.get !t_ref) ~xid)
      ~on_down ~on_restore ()
  in
  t_ref := Some t;
  t

let test_disabled_is_passive () =
  let engine = Engine.create () in
  let t =
    make ~interval:0.0 engine ~send_echo:(fun _ ~xid:_ ->
        Alcotest.fail "disabled session must not send echoes")
  in
  Session.start t;
  Session.note_activity t;
  Engine.run ~until:1.0 engine;
  Alcotest.(check int) "no echoes" 0 (Session.echoes_sent t);
  Alcotest.(check int) "no downs" 0 (Session.downs t);
  Alcotest.(check bool) "promoted by activity" true (Session.state t = Session.Up)

let test_keepalive_loop_stays_up () =
  let engine = Engine.create () in
  (* The peer answers every echo 2 ms later. *)
  let t =
    make engine ~send_echo:(fun t ~xid ->
        ignore
          (Engine.schedule engine ~delay:0.002 (fun () ->
               Session.note_echo_reply t ~xid)))
  in
  Session.note_activity t;
  Session.start t;
  Engine.run ~until:0.095 engine;
  Alcotest.(check bool) "still up" true (Session.state t = Session.Up);
  Alcotest.(check int) "no downs" 0 (Session.downs t);
  Alcotest.(check int) "9 echoes" 9 (Session.echoes_sent t);
  Alcotest.(check int) "all matched" 9 (Session.replies_matched t);
  Alcotest.(check (float 1e-9)) "rtt measured" 0.002
    (Stats.mean (Session.echo_rtts t))

let test_down_after_misses () =
  let engine = Engine.create () in
  let went_down = ref [] in
  let t =
    make
      ~on_down:(fun () -> went_down := Engine.now engine :: !went_down)
      engine
      ~send_echo:(fun _ ~xid:_ -> ())
  in
  Session.note_activity t;
  Session.start t;
  Engine.run ~until:0.1 engine;
  (* Echoes at 10/20/30 ms; the fourth tick finds 3 unanswered. *)
  Alcotest.(check (list (float 1e-9))) "down at the miss budget" [ 0.04 ]
    !went_down;
  Alcotest.(check int) "one down" 1 (Session.downs t);
  Alcotest.(check bool) "degraded" true (Session.is_down t);
  Alcotest.(check bool) "probing the channel" true (Session.probes_sent t >= 1);
  let states = List.map snd (Session.transitions t) in
  Alcotest.(check bool) "passed through probing" true
    (List.mem Session.Probing states);
  Alcotest.(check bool) "reached reconnecting" true
    (Session.state t = Session.Reconnecting)

let test_probe_reply_restores () =
  let engine = Engine.create () in
  let answering = ref false in
  let restored = ref [] in
  let t =
    make
      ~on_restore:(fun ~downtime -> restored := downtime :: !restored)
      engine
      ~send_echo:(fun t ~xid ->
        if !answering then
          ignore
            (Engine.schedule engine ~delay:0.002 (fun () ->
                 Session.note_echo_reply t ~xid)))
  in
  Session.note_activity t;
  Session.start t;
  (* The channel heals at 60 ms: the first reconnect probe (fired at
     40 ms down + 50 ms backoff = 90 ms) gets through. *)
  ignore (Engine.schedule_at engine 0.06 (fun () -> answering := true));
  Engine.run ~until:0.2 engine;
  Alcotest.(check bool) "back up" true (Session.state t = Session.Up);
  Alcotest.(check int) "one recovery" 1 (List.length !restored);
  Alcotest.(check (float 1e-9)) "downtime = probe delay + rtt" 0.052
    (List.hd !restored);
  Alcotest.(check int) "probe replies are not false positives" 0
    (Session.false_positives t);
  Alcotest.(check bool) "keepalive loop restarted" true
    (Session.echoes_sent t > 3)

let test_late_reply_is_false_positive () =
  let engine = Engine.create () in
  let sent = ref [] in
  let t =
    make engine ~send_echo:(fun _ ~xid -> sent := xid :: !sent)
  in
  Session.note_activity t;
  Session.start t;
  (* Down fires at 40 ms; at 50 ms a reply to the very first (pre-
     outage) keepalive finally arrives — the channel was slow, not
     dead. *)
  ignore
    (Engine.schedule_at engine 0.05 (fun () ->
         Session.note_echo_reply t ~xid:(List.nth (List.rev !sent) 0)));
  Engine.run ~until:0.055 engine;
  Alcotest.(check int) "down was declared" 1 (Session.downs t);
  Alcotest.(check int) "and contradicted" 1 (Session.false_positives t);
  Alcotest.(check bool) "restored" true (Session.state t = Session.Up);
  Alcotest.(check (float 1e-9)) "downtime closed" 0.01
    (Session.total_downtime t)

let test_reordered_replies_match_by_xid () =
  let engine = Engine.create () in
  let sent = ref [] in
  let t =
    make engine ~send_echo:(fun _ ~xid -> sent := xid :: !sent)
  in
  Session.note_activity t;
  Session.start t;
  (* Three echoes are in flight (10/20/30 ms); their replies arrive at
     35 ms in reverse order. Matching is by xid, so all three clear. *)
  ignore
    (Engine.schedule_at engine 0.035 (fun () ->
         List.iter (fun xid -> Session.note_echo_reply t ~xid) !sent));
  Engine.run ~until:0.045 engine;
  Alcotest.(check int) "all three matched" 3 (Session.replies_matched t);
  Alcotest.(check int) "no unmatched" 0 (Session.replies_unmatched t);
  Alcotest.(check int) "no downs" 0 (Session.downs t);
  Alcotest.(check int) "no false positives" 0 (Session.false_positives t);
  Alcotest.(check bool) "up" true (Session.state t = Session.Up)

let test_unmatched_reply_counts_as_activity () =
  let engine = Engine.create () in
  let t = make engine ~send_echo:(fun _ ~xid:_ -> ()) in
  Session.note_activity t;
  Session.start t;
  Engine.run ~until:0.025 engine;
  Alcotest.(check bool) "suspicious" true (Session.state t = Session.Probing);
  (* A reply the session never sent (e.g. from before a resync): not
     matched, but still proof of liveness. *)
  Session.note_echo_reply t ~xid:0x7777l;
  Alcotest.(check int) "unmatched counted" 1 (Session.replies_unmatched t);
  Alcotest.(check bool) "activity clears suspicion" true
    (Session.state t = Session.Up)

let test_fail_mode_parsing () =
  List.iter
    (fun (s, expect) ->
      match (Session.fail_mode_of_string s, expect) with
      | Ok m, Some m' ->
          Alcotest.(check string) s
            (Session.fail_mode_to_string m')
            (Session.fail_mode_to_string m)
      | Error _, None -> ()
      | Ok _, None -> Alcotest.fail (s ^ ": expected a parse error")
      | Error e, Some _ -> Alcotest.fail e)
    [
      ("secure", Some Session.Fail_secure);
      ("fail-secure", Some Session.Fail_secure);
      ("fail_secure", Some Session.Fail_secure);
      ("standalone", Some Session.Fail_standalone);
      ("fail-standalone", Some Session.Fail_standalone);
      ("open", None);
    ]

(* Satellite: delay jitter reorders control messages and stretches
   RTTs, but with a sane miss budget the detector must not fire — no
   outage, no false positive, every flow completes. *)
let test_jitter_no_false_alarms () =
  let config =
    {
      (Config.exp_b ~mechanism:Config.Flow_granularity ~rate_mbps:20.0 ~seed:11) with
      Config.echo_interval = 0.005;
      echo_misses = 4;
      faults = { Sdn_sim.Faults.none with Sdn_sim.Faults.jitter_s = 0.008 };
    }
  in
  let r = Experiment.run config in
  Alcotest.(check int) "no outage detected" 0 r.Experiment.outage_detections;
  Alcotest.(check int) "no false positives" 0
    r.Experiment.outage_false_positives;
  Alcotest.(check (float 1e-9)) "no downtime" 0.0 r.Experiment.session_downtime;
  Alcotest.(check int) "every flow completed" r.Experiment.flows_started
    r.Experiment.flows_completed

(* A crash-notified disconnect tears the connection down: replies to
   keepalives that were in flight when it died must not restore the
   session (the peer process is gone), and neither may stray activity
   — only a reply to a reconnect probe, sent after the disconnect,
   proves the peer's new incarnation is up. *)
let test_disconnect_ignores_stale_replies () =
  let engine = Engine.create () in
  let sent = ref [] in
  let t = make engine ~send_echo:(fun _ ~xid -> sent := xid :: !sent) in
  Session.start t;
  Session.note_activity t;
  (* Let one keepalive go out, then kill the peer under it. *)
  Engine.run ~until:0.011 engine;
  let stale_xid = List.hd !sent in
  Session.note_disconnect t;
  Alcotest.(check bool) "down" true (Session.state t = Session.Down);
  Session.note_echo_reply t ~xid:stale_xid;
  Alcotest.(check bool) "stale reply does not restore" true
    (Session.state t = Session.Down);
  Alcotest.(check int) "and is not a false positive" 0
    (Session.false_positives t);
  Session.note_activity t;
  Alcotest.(check bool) "stray activity does not restore" true
    (Session.state t = Session.Down);
  (* Run until a reconnect probe goes out; answering it restores. *)
  let before = List.length !sent in
  Engine.run ~until:0.2 engine;
  let probe_xid = List.hd !sent in
  Alcotest.(check bool) "a probe was sent" true (List.length !sent > before);
  Session.note_echo_reply t ~xid:probe_xid;
  Alcotest.(check bool) "probe reply restores" true
    (Session.state t = Session.Up)

let suite =
  [
    Alcotest.test_case "disabled session is passive" `Quick
      test_disabled_is_passive;
    Alcotest.test_case "crash disconnect ignores stale replies" `Quick
      test_disconnect_ignores_stale_replies;
    Alcotest.test_case "keepalive loop stays up" `Quick
      test_keepalive_loop_stays_up;
    Alcotest.test_case "down after the miss budget" `Quick
      test_down_after_misses;
    Alcotest.test_case "probe reply restores" `Quick test_probe_reply_restores;
    Alcotest.test_case "late reply is a false positive" `Quick
      test_late_reply_is_false_positive;
    Alcotest.test_case "reordered replies match by xid" `Quick
      test_reordered_replies_match_by_xid;
    Alcotest.test_case "unmatched reply is activity" `Quick
      test_unmatched_reply_counts_as_activity;
    Alcotest.test_case "fail-mode parsing" `Quick test_fail_mode_parsing;
    Alcotest.test_case "jitter causes no false alarms" `Slow
      test_jitter_no_false_alarms;
  ]
