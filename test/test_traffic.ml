(* Tests for workload generation: tags, addressing, the paper's Exp-A
   and Exp-B patterns, TCP scenarios, scheduling. *)

open Sdn_sim
open Sdn_net
open Sdn_traffic

let rng () = Rng.of_int 7

let test_tag_roundtrip () =
  let tag = { Tag.flow_id = 123; seq = 45; flow_packets = 20 } in
  let buf = Bytes.make Tag.size '\000' in
  Tag.write tag buf;
  Alcotest.(check bool) "payload roundtrip" true (Tag.read_at buf 0 = Some tag);
  let framed = Bytes.make (5 + Tag.size) 'x' in
  Bytes.blit buf 0 framed 5 Tag.size;
  Alcotest.(check bool) "read in place" true (Tag.read_at framed 5 = Some tag)

let test_tag_in_frame () =
  let injections =
    Patterns.exp_a ~rng:(rng ()) ~n_flows:3 ~rate_mbps:10.0 ~frame_size:1000 ()
  in
  List.iteri
    (fun i inj ->
      match Tag.read_frame inj.Patterns.frame with
      | Some tag ->
          Alcotest.(check int) "flow id" i tag.Tag.flow_id;
          Alcotest.(check int) "seq" 0 tag.Tag.seq;
          Alcotest.(check int) "flow packets" 1 tag.Tag.flow_packets
      | None -> Alcotest.fail "tag missing")
    injections

let test_tag_rejects_untagged () =
  Alcotest.(check bool) "no magic" true
    (Tag.read_at (Bytes.make Tag.size 'x') 0 = None);
  Alcotest.(check bool) "too short" true (Tag.read_frame (Bytes.make 10 'x') = None);
  let tag = Bytes.make Tag.size '\000' in
  Tag.write { Tag.flow_id = 1; seq = 2; flow_packets = 3 } tag;
  (* The magic word fits; the rest of the tag does not. *)
  let cut = Bytes.make (4 + Tag.size - 1) '\000' in
  Bytes.blit tag 0 cut 4 (Tag.size - 1);
  Alcotest.(check bool) "cut short" true (Tag.read_at cut 4 = None);
  Alcotest.(check bool) "negative offset" true (Tag.read_at tag (-1) = None)

let test_addressing_unique_flows () =
  let a = Addressing.default in
  let keys = List.init 100 (fun flow_id -> Addressing.flow_key a ~flow_id) in
  let distinct = List.sort_uniq Flow_key.compare keys in
  Alcotest.(check int) "all 5-tuples unique" 100 (List.length distinct)

let test_spacing () =
  (* 1000 B at 20 Mbps = 400 us per frame. *)
  Alcotest.(check (float 1e-12)) "gap" 400e-6
    (Patterns.spacing ~rate_mbps:20.0 ~frame_size:1000)

let test_exp_a_structure () =
  let injections =
    Patterns.exp_a ~rng:(rng ()) ~jitter:0.0 ~n_flows:10 ~rate_mbps:20.0
      ~frame_size:1000 ()
  in
  Alcotest.(check int) "count" 10 (List.length injections);
  List.iter
    (fun inj ->
      Alcotest.(check int) "frame size" 1000 (Bytes.length inj.Patterns.frame);
      Alcotest.(check int) "enters port 1" 1 inj.Patterns.in_port)
    injections;
  (* Spacing between consecutive frames is the nominal gap. *)
  let times = List.map (fun i -> i.Patterns.time) injections in
  List.iteri
    (fun i t ->
      Alcotest.(check (float 1e-9)) "even spacing" (float_of_int i *. 400e-6) t)
    times;
  (* Every frame decodes and is a distinct flow. *)
  let keys =
    List.map
      (fun inj ->
        match Packet.decode inj.Patterns.frame with
        | Ok pkt -> Option.get (Packet.flow_key pkt)
        | Error e -> Alcotest.fail e)
      injections
  in
  Alcotest.(check int) "unique flows" 10
    (List.length (List.sort_uniq Flow_key.compare keys))

let test_exp_a_jitter_deterministic () =
  let a = Patterns.exp_a ~rng:(Rng.of_int 3) ~n_flows:20 ~rate_mbps:30.0 ~frame_size:1000 () in
  let b = Patterns.exp_a ~rng:(Rng.of_int 3) ~n_flows:20 ~rate_mbps:30.0 ~frame_size:1000 () in
  let c = Patterns.exp_a ~rng:(Rng.of_int 4) ~n_flows:20 ~rate_mbps:30.0 ~frame_size:1000 () in
  let times l = List.map (fun i -> i.Patterns.time) l in
  Alcotest.(check (list (float 1e-15))) "same seed, same times" (times a) (times b);
  Alcotest.(check bool) "different seed differs" true (times a <> times c)

let test_exp_b_cross_sequence () =
  let injections =
    Patterns.exp_b ~rng:(rng ()) ~jitter:0.0 ~n_flows:10 ~packets_per_flow:4
      ~concurrent:5 ~rate_mbps:50.0 ~frame_size:1000 ()
  in
  Alcotest.(check int) "total packets" 40 (List.length injections);
  (* First five injections are flows 0..4 seq 0 (cross sequence), the
     next five are the same flows at seq 1, etc. *)
  let expected_order =
    [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 0); (0, 1); (1, 1); (2, 1); (3, 1); (4, 1) ]
  in
  let actual =
    List.map (fun i -> (i.Patterns.flow_id, i.Patterns.seq)) injections
  in
  Alcotest.(check (list (pair int int))) "cross sequence"
    expected_order
    (List.filteri (fun i _ -> i < 10) actual);
  (* The second batch starts after the first is fully sent. *)
  let batch2 = List.nth injections 20 in
  Alcotest.(check int) "second batch first flow" 5 batch2.Patterns.flow_id;
  (* Tags carry the per-flow packet count. *)
  List.iter
    (fun inj ->
      match Tag.read_frame inj.Patterns.frame with
      | Some tag -> Alcotest.(check int) "flow_packets" 4 tag.Tag.flow_packets
      | None -> Alcotest.fail "tag missing")
    injections

let test_exp_b_validation () =
  Alcotest.(check bool) "n_flows multiple of concurrent" true
    (try
       ignore
         (Patterns.exp_b ~rng:(rng ()) ~n_flows:7 ~packets_per_flow:2
            ~concurrent:5 ~rate_mbps:10.0 ~frame_size:1000 ());
       false
     with Invalid_argument _ -> true)

let test_udp_burst () =
  let injections =
    Patterns.udp_burst ~rng:(rng ()) ~n_packets:50 ~rate_mbps:100.0 ~frame_size:1000 ()
  in
  Alcotest.(check int) "count" 50 (List.length injections);
  let flows =
    List.sort_uniq compare (List.map (fun i -> i.Patterns.flow_id) injections)
  in
  Alcotest.(check (list int)) "single flow" [ 0 ] flows

let test_tcp_handshake_then_data () =
  let injections =
    Patterns.tcp_handshake_then_data ~rng:(rng ()) ~flow_id:1 ~data_packets:5
      ~rate_mbps:50.0 ~frame_size:1000 ()
  in
  Alcotest.(check int) "3 handshake + 5 data" 8 (List.length injections);
  let decoded =
    List.map
      (fun inj ->
        match Packet.decode inj.Patterns.frame with
        | Ok pkt -> (inj.Patterns.in_port, pkt)
        | Error e -> Alcotest.fail e)
      injections
  in
  (match decoded with
  | (1, syn) :: (2, syn_ack) :: (1, ack) :: data -> (
      let flags pkt =
        match pkt.Packet.l3 with
        | Packet.Ipv4 (_, Packet.Tcp (tcp, _)) -> tcp.Tcp.flags
        | _ -> Alcotest.fail "expected tcp"
      in
      Alcotest.(check bool) "SYN" true (flags syn = Tcp.flags_syn);
      Alcotest.(check bool) "SYN-ACK" true (flags syn_ack = Tcp.flags_syn_ack);
      Alcotest.(check bool) "ACK" true (flags ack = Tcp.flags_ack);
      Alcotest.(check bool) "handshake frames are small" true
        (List.for_all
           (fun inj -> Bytes.length inj.Patterns.frame < 100)
           (List.filteri (fun i _ -> i < 3) injections));
      match data with
      | (_, first_data) :: _ ->
          Alcotest.(check int) "data frames are full size" 1000
            (Packet.size first_data)
      | [] -> Alcotest.fail "expected data")
  | _ -> Alcotest.fail "unexpected handshake shape")

let test_tcp_idle_resume_gap () =
  let injections =
    Patterns.tcp_idle_resume ~rng:(rng ()) ~flow_id:1 ~first_burst:3
      ~idle_gap:10.0 ~second_burst:3 ~rate_mbps:50.0 ~frame_size:1000 ()
  in
  Alcotest.(check int) "3 + 3 + 3" 9 (List.length injections);
  let times = List.map (fun i -> i.Patterns.time) injections in
  let gaps =
    List.map2 (fun a b -> b -. a)
      (List.filteri (fun i _ -> i < 8) times)
      (List.tl times)
  in
  let big_gaps = List.filter (fun g -> g > 9.0) gaps in
  Alcotest.(check int) "exactly one idle gap" 1 (List.length big_gaps)

let test_pktgen_schedules_at_times () =
  let engine = Engine.create () in
  let injections =
    Patterns.exp_a ~rng:(rng ()) ~jitter:0.0 ~n_flows:5 ~rate_mbps:10.0
      ~frame_size:1000 ()
  in
  let delivered = ref [] in
  Pktgen.schedule engine
    ~inject:(fun ~in_port:_ frame ->
      delivered := (Engine.now engine, frame) :: !delivered)
    injections;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 5 (List.length !delivered);
  List.iter2
    (fun inj (t, frame) ->
      Alcotest.(check (float 1e-12)) "at planned time" inj.Patterns.time t;
      Alcotest.(check bytes) "right frame" inj.Patterns.frame frame)
    injections (List.rev !delivered)

(* One [Engine.schedule_at] per injection, in list order: how
   [Pktgen.schedule] queued a plan before it handed plans to
   [Engine.schedule_plan]. Its dispatch order is the reference. *)
let schedule_each engine ~inject injections =
  List.iter
    (fun (inj : Patterns.injection) ->
      ignore
        (Engine.schedule_at engine inj.Patterns.time (fun () ->
             inject ~in_port:inj.Patterns.in_port inj.Patterns.frame)))
    injections

(* Shaped like [examples/qos_scheduling.ml]'s [bulk @ interactive]: two
   sorted plans concatenated, so the list is unsorted. Dyadic times make
   every interactive frame tie exactly with a bulk frame, the first two
   at the start. *)
let bulk_then_interactive () =
  let rng = rng () in
  let every ~step ~in_port injections =
    List.mapi
      (fun i (inj : Patterns.injection) ->
        { inj with Patterns.time = 0.0625 +. (float_of_int i *. step); in_port })
      injections
  in
  let frames n ~frame_size =
    Patterns.udp_burst ~rng ~n_packets:n ~rate_mbps:97.0 ~frame_size ()
  in
  every ~step:0x1p-12 ~in_port:1 (frames 40 ~frame_size:1000)
  @ every ~step:0x1p-10 ~in_port:2 (frames 8 ~frame_size:200)

type dispatched = Injected of int * Bytes.t | Foreign of string

(* The dispatch trace of [bulk_then_interactive] under [schedule], with
   foreign events at tied instants scheduled before and after the plan
   and from inside [inject]. *)
let pktgen_trace schedule =
  let engine = Engine.create () in
  let trace = ref [] in
  let record ev = trace := (Engine.now engine, ev) :: !trace in
  let foreign label at =
    ignore (Engine.schedule_at engine at (fun () -> record (Foreign label)))
  in
  let tie = 0.0625 +. (8.0 *. 0x1p-12) in
  foreign "before@start" 0.0625;
  foreign "before@tie" tie;
  let injected = ref 0 in
  schedule engine
    ~inject:(fun ~in_port frame ->
      record (Injected (in_port, Bytes.copy frame));
      incr injected;
      if !injected mod 5 = 0 then begin
        foreign (Printf.sprintf "now%d" !injected) (Engine.now engine);
        foreign (Printf.sprintf "next%d" !injected)
          (Engine.now engine +. 0x1p-12)
      end)
    (bulk_then_interactive ());
  foreign "after@start" 0.0625;
  foreign "after@tie" tie;
  Engine.run engine;
  List.rev !trace

let test_pktgen_unsorted_plan_dispatch () =
  let streamed = pktgen_trace Pktgen.schedule in
  Alcotest.(check int) "every event ran" (48 + 4 + 18) (List.length streamed);
  Alcotest.(check bool) "same trace as one schedule_at per injection" true
    (streamed = pktgen_trace schedule_each);
  (* Frames arrive intact, in time order and list order among ties. *)
  let planned =
    List.stable_sort
      (fun (a : Patterns.injection) b -> Float.compare a.time b.time)
      (bulk_then_interactive ())
  in
  let injected =
    List.filter_map
      (function t, Injected (port, frame) -> Some (t, port, frame) | _, Foreign _ -> None)
      streamed
  in
  List.iter2
    (fun (inj : Patterns.injection) (t, port, frame) ->
      Alcotest.(check (float 0.0)) "time" inj.time t;
      Alcotest.(check int) "port" inj.in_port port;
      Alcotest.(check bytes) "frame" inj.frame frame)
    planned injected

(* A bad time anywhere in the list, sorted or not, refuses the whole
   plan before any frame is queued. *)
let test_pktgen_refuses_bad_plan () =
  let engine = Engine.create ~now:1.0 () in
  let plan times =
    List.map2
      (fun time (inj : Patterns.injection) -> { inj with Patterns.time })
      times
      (Patterns.udp_burst ~rng:(rng ()) ~n_packets:(List.length times)
         ~rate_mbps:10.0 ~frame_size:100 ())
  in
  List.iter
    (fun (name, times) ->
      Alcotest.(check bool) name true
        (match
           Pktgen.schedule engine ~inject:(fun ~in_port:_ _ -> ()) (plan times)
         with
        | () -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check int) (name ^ ": nothing queued") 0 (Engine.pending engine))
    [
      ("NaN in a sorted list", [ 1.0; Float.nan; 2.0 ]);
      ("NaN in an unsorted list", [ 2.0; 1.5; Float.nan ]);
      ("before now", [ 1.5; 0.5 ]);
    ]

(* Built in its own function so that no local of the test keeps the
   list alive once it is scheduled. *)
let[@inline never] schedule_watched engine weak =
  let injections =
    Patterns.exp_a ~rng:(rng ()) ~n_flows:3 ~rate_mbps:10.0 ~frame_size:1000 ()
  in
  Weak.set weak 0 (Some (List.hd injections).Patterns.frame);
  Weak.set weak 1 (Some (List.nth injections 2).Patterns.frame);
  Pktgen.schedule engine ~inject:(fun ~in_port:_ _ -> ()) injections

(* The plan lets go of a frame once it is injected, as the frame's own
   event did when each injection was scheduled separately. *)
let test_pktgen_releases_injected_frames () =
  let engine = Engine.create () in
  let weak = Weak.create 2 in
  schedule_watched engine weak;
  Alcotest.(check bool) "first injection" true (Engine.step engine);
  Gc.full_major ();
  Alcotest.(check bool) "injected frame collected" true
    (Option.is_none (Weak.get weak 0));
  Alcotest.(check bool) "frame still to inject kept" true
    (Option.is_some (Weak.get weak 1));
  Engine.run engine;
  Alcotest.(check int) "all injected" 3 (Engine.processed engine)

let test_pktgen_stats () =
  let injections =
    Patterns.exp_a ~rng:(rng ()) ~jitter:0.0 ~n_flows:100 ~rate_mbps:40.0
      ~frame_size:1000 ()
  in
  let stats = Pktgen.stats_of injections in
  Alcotest.(check int) "count" 100 stats.Pktgen.injected;
  Alcotest.(check int) "bytes" 100_000 stats.Pktgen.bytes;
  let rate = Pktgen.offered_rate_mbps stats in
  Alcotest.(check bool)
    (Printf.sprintf "offered rate near nominal (got %g)" rate)
    true
    (abs_float (rate -. 40.0) < 1.0)

let suite =
  [
    Alcotest.test_case "tag roundtrip" `Quick test_tag_roundtrip;
    Alcotest.test_case "tag embedded in frames" `Quick test_tag_in_frame;
    Alcotest.test_case "tag rejects untagged data" `Quick test_tag_rejects_untagged;
    Alcotest.test_case "addressing gives unique flows" `Quick
      test_addressing_unique_flows;
    Alcotest.test_case "spacing math" `Quick test_spacing;
    Alcotest.test_case "exp-a structure" `Quick test_exp_a_structure;
    Alcotest.test_case "exp-a deterministic jitter" `Quick
      test_exp_a_jitter_deterministic;
    Alcotest.test_case "exp-b cross sequence" `Quick test_exp_b_cross_sequence;
    Alcotest.test_case "exp-b validation" `Quick test_exp_b_validation;
    Alcotest.test_case "udp burst" `Quick test_udp_burst;
    Alcotest.test_case "tcp handshake then data" `Quick test_tcp_handshake_then_data;
    Alcotest.test_case "tcp idle/resume gap" `Quick test_tcp_idle_resume_gap;
    Alcotest.test_case "pktgen schedules at times" `Quick
      test_pktgen_schedules_at_times;
    Alcotest.test_case "pktgen stats" `Quick test_pktgen_stats;
    Alcotest.test_case "pktgen unsorted plan dispatch" `Quick
      test_pktgen_unsorted_plan_dispatch;
    Alcotest.test_case "pktgen refuses a bad plan whole" `Quick
      test_pktgen_refuses_bad_plan;
    Alcotest.test_case "pktgen releases injected frames" `Quick
      test_pktgen_releases_injected_frames;
  ]
