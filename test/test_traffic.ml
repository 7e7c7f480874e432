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

(* Injection [i]'s frame, built as [Pktgen] builds it. *)
let frames (plan : Patterns.t) = List.init (Array.length plan.times) plan.frame

let tag_of frame =
  match Tag.read_frame frame with
  | Some tag -> tag
  | None -> Alcotest.fail "tag missing"

let test_tag_in_frame () =
  let plan =
    Patterns.exp_a ~rng:(rng ()) ~n_flows:3 ~rate_mbps:10.0 ~frame_size:1000 ()
  in
  List.iteri
    (fun i frame ->
      let tag = tag_of frame in
      Alcotest.(check int) "flow id" i tag.Tag.flow_id;
      Alcotest.(check int) "seq" 0 tag.Tag.seq;
      Alcotest.(check int) "flow packets" 1 tag.Tag.flow_packets;
      Alcotest.(check int) "flow id in place" i
        (Tag.frame_flow_id frame ~off:0 ~len:(Bytes.length frame));
      Alcotest.(check int) "flow packets in place" 1
        (Tag.frame_flow_packets frame ~off:0))
    (frames plan)

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
  Alcotest.(check bool) "negative offset" true (Tag.read_at tag (-1) = None);
  (* In place, [len] bounds the frame, whatever the buffer holds. *)
  let frame = Bytes.make (Packet.min_udp_frame + Tag.size) '\000' in
  Tag.write_at { Tag.flow_id = 1; seq = 2; flow_packets = 3 } frame Packet.min_udp_frame;
  let n = Bytes.length frame in
  Alcotest.(check int) "whole tag" 1 (Tag.frame_flow_id frame ~off:0 ~len:n);
  Alcotest.(check int) "len ends inside the tag" Tag.no_flow
    (Tag.frame_flow_id frame ~off:0 ~len:(n - 1));
  Alcotest.(check int) "too short in place" Tag.no_flow
    (Tag.frame_flow_id (Bytes.make 10 'x') ~off:0 ~len:10)

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
  let plan =
    Patterns.exp_a ~rng:(rng ()) ~jitter:0.0 ~n_flows:10 ~rate_mbps:20.0
      ~frame_size:1000 ()
  in
  Alcotest.(check int) "count" 10 (Array.length plan.times);
  Alcotest.(check int) "bytes" 10_000 plan.bytes;
  List.iter
    (fun frame -> Alcotest.(check int) "frame size" 1000 (Bytes.length frame))
    (frames plan);
  Alcotest.(check (array int)) "enters port 1" (Array.make 10 1) plan.ports;
  (* Spacing between consecutive frames is the nominal gap. *)
  Array.iteri
    (fun i t ->
      Alcotest.(check (float 1e-9)) "even spacing" (float_of_int i *. 400e-6) t)
    plan.times;
  (* Every frame decodes and is a distinct flow. *)
  let keys =
    List.map
      (fun frame ->
        match Packet.decode frame with
        | Ok pkt -> Option.get (Packet.flow_key pkt)
        | Error e -> Alcotest.fail e)
      (frames plan)
  in
  Alcotest.(check int) "unique flows" 10
    (List.length (List.sort_uniq Flow_key.compare keys))

let test_exp_a_jitter_deterministic () =
  let times seed =
    (Patterns.exp_a ~rng:(Rng.of_int seed) ~n_flows:20 ~rate_mbps:30.0
       ~frame_size:1000 ())
      .times
  in
  Alcotest.(check (array (float 1e-15))) "same seed, same times" (times 3) (times 3);
  Alcotest.(check bool) "different seed differs" true (times 3 <> times 4)

let test_exp_b_cross_sequence () =
  let plan =
    Patterns.exp_b ~rng:(rng ()) ~jitter:0.0 ~n_flows:10 ~packets_per_flow:4
      ~concurrent:5 ~rate_mbps:50.0 ~frame_size:1000 ()
  in
  Alcotest.(check int) "total packets" 40 (Array.length plan.times);
  let tags = List.map tag_of (frames plan) in
  (* First five injections are flows 0..4 seq 0 (cross sequence), the
     next five are the same flows at seq 1, etc. *)
  let expected_order =
    [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 0); (0, 1); (1, 1); (2, 1); (3, 1); (4, 1) ]
  in
  let actual = List.map (fun tag -> (tag.Tag.flow_id, tag.Tag.seq)) tags in
  Alcotest.(check (list (pair int int))) "cross sequence"
    expected_order
    (List.filteri (fun i _ -> i < 10) actual);
  (* The second batch starts after the first is fully sent. *)
  Alcotest.(check (pair int int)) "second batch first flow" (5, 0)
    (List.nth actual 20);
  (* Every flow sends seq 0..3 exactly once. *)
  Alcotest.(check (list (pair int int))) "each flow's packets once"
    (List.concat_map (fun f -> List.init 4 (fun seq -> (f, seq))) (List.init 10 Fun.id))
    (List.sort compare actual);
  (* Tags carry the per-flow packet count. *)
  List.iter
    (fun tag -> Alcotest.(check int) "flow_packets" 4 tag.Tag.flow_packets)
    tags

let test_exp_b_validation () =
  Alcotest.(check bool) "n_flows multiple of concurrent" true
    (try
       ignore
         (Patterns.exp_b ~rng:(rng ()) ~n_flows:7 ~packets_per_flow:2
            ~concurrent:5 ~rate_mbps:10.0 ~frame_size:1000 ());
       false
     with Invalid_argument _ -> true)

let test_udp_burst () =
  let plan =
    Patterns.udp_burst ~rng:(rng ()) ~n_packets:50 ~rate_mbps:100.0 ~frame_size:1000 ()
  in
  Alcotest.(check int) "count" 50 (Array.length plan.times);
  let tags = List.map tag_of (frames plan) in
  Alcotest.(check (list int)) "single flow" [ 0 ]
    (List.sort_uniq compare (List.map (fun tag -> tag.Tag.flow_id) tags));
  Alcotest.(check (list int)) "seq by index" (List.init 50 Fun.id)
    (List.map (fun tag -> tag.Tag.seq) tags)

(* The connection opens with SYN, SYN-ACK (the reverse direction, on
   port 2) and ACK in small frames; full-size data follows. *)
let test_tcp_idle_resume_handshake () =
  let plan =
    Patterns.tcp_idle_resume ~rng:(rng ()) ~flow_id:1 ~first_burst:3
      ~idle_gap:10.0 ~second_burst:2 ~rate_mbps:50.0 ~frame_size:1000 ()
  in
  Alcotest.(check int) "3 handshake + 3 + 2 data" 8 (Array.length plan.times);
  Alcotest.(check int) "bytes" plan.bytes
    (List.fold_left (fun acc f -> acc + Bytes.length f) 0 (frames plan));
  let decoded =
    List.mapi
      (fun i frame ->
        match Packet.decode frame with
        | Ok pkt -> (plan.ports.(i), pkt)
        | Error e -> Alcotest.fail e)
      (frames plan)
  in
  match decoded with
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
           (fun frame -> Bytes.length frame < 100)
           (List.filteri (fun i _ -> i < 3) (frames plan)));
      Alcotest.(check (list int)) "data frames are full size, from port 1"
        (List.init 5 (fun _ -> 1000))
        (List.map
           (fun (port, pkt) -> if port = 1 then Packet.size pkt else -1)
           data))
  | _ -> Alcotest.fail "unexpected handshake shape"

let test_tcp_idle_resume_gap () =
  let plan =
    Patterns.tcp_idle_resume ~rng:(rng ()) ~flow_id:1 ~first_burst:3
      ~idle_gap:10.0 ~second_burst:3 ~rate_mbps:50.0 ~frame_size:1000 ()
  in
  Alcotest.(check int) "3 + 3 + 3" 9 (Array.length plan.times);
  let gaps = List.init 8 (fun i -> plan.times.(i + 1) -. plan.times.(i)) in
  let big_gaps = List.filter (fun g -> g > 9.0) gaps in
  Alcotest.(check int) "exactly one idle gap" 1 (List.length big_gaps)

let test_pktgen_schedules_at_times () =
  let engine = Engine.create () in
  let plan =
    Patterns.exp_a ~rng:(rng ()) ~jitter:0.0 ~n_flows:5 ~rate_mbps:10.0
      ~frame_size:1000 ()
  in
  (* The plan builds each frame once, when it is injected. *)
  let built = ref [] in
  let counted =
    {
      plan with
      frame =
        (fun i ->
          built := (Engine.now engine, i) :: !built;
          plan.frame i);
    }
  in
  let delivered = ref [] in
  Pktgen.schedule engine
    ~inject:(fun ~in_port frame ->
      delivered := (Engine.now engine, in_port, frame) :: !delivered)
    counted;
  Alcotest.(check int) "set-up builds no frame" 0 (List.length !built);
  Engine.run engine;
  Alcotest.(check (list (pair (float 0.0) int))) "each frame built at its time"
    (List.init 5 (fun i -> (plan.times.(i), i)))
    (List.rev !built);
  Alcotest.(check int) "all delivered" 5 (List.length !delivered);
  List.iteri
    (fun i (t, port, frame) ->
      Alcotest.(check (float 1e-12)) "at planned time" plan.times.(i) t;
      Alcotest.(check int) "port" plan.ports.(i) port;
      Alcotest.(check bytes) "right frame" (plan.frame i) frame)
    (List.rev !delivered)

(* One [Engine.schedule_at] per injection, plan by plan in index
   order: how [Pktgen.schedule] queued a plan before it handed plans to
   [Engine.schedule_plan]. Its dispatch order is the reference. *)
let schedule_each engine ~inject plans =
  List.iter
    (fun (plan : Patterns.t) ->
      Array.iteri
        (fun i time ->
          ignore
            (Engine.schedule_at engine time (fun () ->
                 inject ~in_port:plan.ports.(i) (plan.frame i))))
        plan.times)
    plans

(* Shaped like [examples/qos_scheduling.ml]'s [bulk] and [interactive]
   plans, scheduled back to back: each is sorted, their concatenation
   is not. Dyadic times make every interactive frame tie exactly with a
   bulk frame, the first two at the start. *)
let bulk_and_interactive () =
  let rng = rng () in
  let every ~step ~in_port (plan : Patterns.t) =
    {
      plan with
      times = Array.mapi (fun i _ -> 0.0625 +. (float_of_int i *. step)) plan.times;
      ports = Array.map (fun _ -> in_port) plan.ports;
    }
  in
  let burst n ~frame_size =
    Patterns.udp_burst ~rng ~n_packets:n ~rate_mbps:97.0 ~frame_size ()
  in
  [
    every ~step:0x1p-12 ~in_port:1 (burst 40 ~frame_size:1000);
    every ~step:0x1p-10 ~in_port:2 (burst 8 ~frame_size:200);
  ]

type dispatched = Injected of int * Bytes.t | Foreign of string

(* The dispatch trace of [bulk_and_interactive] under [schedule], with
   foreign events at tied instants scheduled before and after the plans
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
    (bulk_and_interactive ());
  foreign "after@start" 0.0625;
  foreign "after@tie" tie;
  Engine.run engine;
  List.rev !trace

(* Two plans scheduled back to back reserve consecutive blocks of
   insertion order, so they dispatch exactly as one [schedule_at] per
   injection over their concatenation: ties go to the first plan. *)
let test_pktgen_unsorted_plan_dispatch () =
  let streamed =
    pktgen_trace (fun engine ~inject plans ->
        List.iter (Pktgen.schedule engine ~inject) plans)
  in
  Alcotest.(check int) "every event ran" (48 + 4 + 18) (List.length streamed);
  Alcotest.(check bool) "same trace as one schedule_at per injection" true
    (streamed = pktgen_trace schedule_each);
  (* Frames arrive intact, in time order and plan order among ties. *)
  let planned =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      (List.concat_map
         (fun (plan : Patterns.t) ->
           List.init (Array.length plan.times) (fun i ->
               (plan.times.(i), plan.ports.(i), plan.frame i)))
         (bulk_and_interactive ()))
  in
  let injected =
    List.filter_map
      (function t, Injected (port, frame) -> Some (t, port, frame) | _, Foreign _ -> None)
      streamed
  in
  List.iter2
    (fun (time, in_port, frame) (t, port, injected_frame) ->
      Alcotest.(check (float 0.0)) "time" time t;
      Alcotest.(check int) "port" in_port port;
      Alcotest.(check bytes) "frame" frame injected_frame)
    planned injected

(* A bad time anywhere in the plan refuses the whole plan before any
   injection is queued or any frame built. *)
let test_pktgen_refuses_bad_plan () =
  let engine = Engine.create ~now:1.0 () in
  let plan times =
    {
      (Patterns.udp_burst ~rng:(rng ()) ~n_packets:(Array.length times)
         ~rate_mbps:10.0 ~frame_size:100 ())
      with
      times;
      frame = (fun _ -> Alcotest.fail "a refused plan built a frame");
    }
  in
  List.iter
    (fun (name, plan) ->
      Alcotest.(check bool) name true
        (match Pktgen.schedule engine ~inject:(fun ~in_port:_ _ -> ()) plan with
        | () -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check int) (name ^ ": nothing queued") 0 (Engine.pending engine))
    [
      ("NaN inside", plan [| 1.0; Float.nan; 2.0 |]);
      ("NaN last", plan [| 1.5; 2.0; Float.nan |]);
      ("before now", plan [| 0.5; 1.5 |]);
      ("decreasing", plan [| 1.0; 2.0; 1.5 |]);
      ("a port short", { (plan [| 1.0; 2.0 |]) with ports = [| 1 |] });
    ];
  Alcotest.(check int) "engine untouched" 0 (Engine.processed engine)

(* The plan holds no frame: each one is built at its injection, and
   once [inject] lets go of it, nothing keeps it alive. *)
let test_pktgen_releases_injected_frames () =
  let engine = Engine.create () in
  let weak = Weak.create 3 in
  let injected = ref 0 in
  Pktgen.schedule engine
    ~inject:(fun ~in_port:_ frame ->
      Weak.set weak !injected (Some frame);
      incr injected)
    (Patterns.exp_a ~rng:(rng ()) ~n_flows:3 ~rate_mbps:10.0 ~frame_size:1000 ());
  Alcotest.(check bool) "first injection" true (Engine.step engine);
  Alcotest.(check bool) "frame reached inject" true (Option.is_some (Weak.get weak 0));
  Gc.full_major ();
  Alcotest.(check bool) "injected frame collected" true
    (Option.is_none (Weak.get weak 0));
  Engine.run engine;
  Alcotest.(check int) "all injected" 3 !injected;
  Gc.full_major ();
  Alcotest.(check bool) "every frame collected" true
    (List.for_all (fun i -> Option.is_none (Weak.get weak i)) [ 0; 1; 2 ])

let test_pktgen_stats () =
  let plan =
    Patterns.exp_a ~rng:(rng ()) ~jitter:0.0 ~n_flows:100 ~rate_mbps:40.0
      ~frame_size:1000 ()
  in
  let stats = Pktgen.stats_of plan in
  Alcotest.(check int) "count" 100 stats.Pktgen.injected;
  Alcotest.(check int) "bytes" 100_000 stats.Pktgen.bytes;
  Alcotest.(check (float 0.0)) "first" plan.times.(0) stats.Pktgen.first;
  Alcotest.(check (float 0.0)) "last" plan.times.(99) stats.Pktgen.last;
  let rate = Pktgen.offered_rate_mbps stats in
  Alcotest.(check bool)
    (Printf.sprintf "offered rate near nominal (got %g)" rate)
    true
    (abs_float (rate -. 40.0) < 1.0)

(* ---- UDP frames from the per-plan template ---- *)

(* The general encoder's frame: the reference for the template's. *)
let encoder_frame addressing ~flow_id ~seq ~flow_packets ~frame_size =
  Packet.encode
    (Packet.udp_frame_of_size ~src_mac:addressing.Addressing.src_mac
       ~dst_mac:addressing.Addressing.dst_mac
       ~src_ip:(Addressing.src_ip addressing ~flow_id)
       ~dst_ip:addressing.Addressing.dst_ip
       ~src_port:(Addressing.src_port addressing ~flow_id)
       ~dst_port:addressing.Addressing.dst_port ~frame_size
       ~payload_fill:(Tag.write { Tag.flow_id; seq; flow_packets }))

let addressing_gen =
  QCheck.Gen.(
    let* macs = pair int int in
    let* ips = pair int int in
    let* src_port_base = int_range 0 (65535 - 16383) in
    let+ dst_port = int_range 0 65535 in
    let mac v = Mac.of_int64 (Int64.of_int v) in
    let ip v = Ip.of_int32 (Int32.of_int v) in
    {
      Addressing.src_mac = mac (fst macs);
      dst_mac = mac (snd macs);
      src_ip_base = ip (fst ips);
      dst_ip = ip (snd ips);
      src_port_base;
      dst_port;
    })

let print_case (a, flow_id, seq, flow_packets, frame_size) =
  Printf.sprintf
    "src %s dst %s ip %s -> %s ports %d -> %d flow %d seq %d/%d size %d"
    (Mac.to_string a.Addressing.src_mac) (Mac.to_string a.Addressing.dst_mac)
    (Ip.to_string a.Addressing.src_ip_base) (Ip.to_string a.Addressing.dst_ip)
    a.Addressing.src_port_base a.Addressing.dst_port flow_id seq flow_packets
    frame_size

let prop_template_matches_encoder =
  QCheck.Test.make ~name:"template frame equals the encoder's" ~count:500
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         let* a = addressing_gen in
         let* flow_id = int_bound ((1 lsl 20) - 1) in
         let* seq = int_bound ((1 lsl 31) - 1) in
         let* flow_packets = int_bound ((1 lsl 31) - 1) in
         let+ frame_size = int_range Patterns.min_udp_frame_size 1514 in
         (a, flow_id, seq, flow_packets, frame_size)))
    (fun (a, flow_id, seq, flow_packets, frame_size) ->
      Bytes.equal
        (Patterns.udp_frame
           (Patterns.udp_template a ~frame_size)
           ~flow_id ~seq ~flow_packets)
        (encoder_frame a ~flow_id ~seq ~flow_packets ~frame_size))

(* Packet 4485 of a 4486-packet burst of 64-B frames sums to 0xFFFF, so
   its UDP checksum computes to zero and goes out as 0xFFFF (RFC 768). *)
let test_template_zero_udp_checksum () =
  let plan =
    Patterns.udp_burst ~rng:(rng ()) ~n_packets:4486 ~rate_mbps:100.0
      ~frame_size:64 ()
  in
  let frame = plan.frame 4485 in
  Alcotest.(check int) "checksum sent as all ones" 0xFFFF
    (Bytes.get_uint16_be frame (Packet.min_udp_frame - Udp.size + 6));
  Alcotest.(check bytes) "equals the encoder's" frame
    (encoder_frame Addressing.default ~flow_id:0 ~seq:4485 ~flow_packets:4486
       ~frame_size:64);
  Alcotest.(check bool) "decodes" true (Result.is_ok (Packet.decode frame))

(* The five UDP patterns, each building a small plan of [frame_size]. *)
let udp_patterns =
  let rng = rng () and rate_mbps = 10.0 in
  [
    ( "exp_a",
      fun frame_size ->
        Patterns.exp_a ~rng ~n_flows:2 ~rate_mbps ~frame_size () );
    ( "exp_b",
      fun frame_size ->
        Patterns.exp_b ~rng ~n_flows:2 ~packets_per_flow:2 ~concurrent:2
          ~rate_mbps ~frame_size () );
    ( "udp_burst",
      fun frame_size -> Patterns.udp_burst ~rng ~n_packets:2 ~rate_mbps ~frame_size ()
    );
    ( "poisson_flows",
      fun frame_size ->
        Patterns.poisson_flows ~rng ~n_flows:2 ~rate_mbps ~frame_size () );
    ( "poisson_mix",
      fun frame_size ->
        Patterns.poisson_mix ~rng ~n_packets:2 ~miss_fraction:0.5 ~rate_mbps
          ~frame_size () );
  ]

(* A frame too small for the tag is refused when the plan is built,
   naming the minimum, not halfway through a run. *)
let test_udp_patterns_reject_small_frames () =
  List.iter
    (fun (name, build) ->
      List.iter
        (fun frame_size ->
          let expected =
            Printf.sprintf
              "Patterns.%s: frame_size %d is below the minimum 58 (UDP headers \
               and the 16-byte tag)"
              name frame_size
          in
          match build frame_size with
          | _ -> Alcotest.failf "%s accepted frame_size %d" name frame_size
          | exception Invalid_argument msg ->
              Alcotest.(check string) name expected msg)
        [ 0; 41; 42; 57 ];
      let plan = build 58 in
      List.iter
        (fun frame ->
          Alcotest.(check int) (name ^ ": 58 accepted") 58 (Bytes.length frame);
          ignore (tag_of frame))
        (frames plan))
    udp_patterns

(* Arguments that would draw a negative gap are refused, so every plan
   a pattern builds is nondecreasing, as [Engine.schedule_plan]
   requires. *)
let test_patterns_refuse_unsorting_arguments () =
  let refused name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  refused "jitter above 1" (fun () ->
      Patterns.exp_a ~rng:(rng ()) ~jitter:1.5 ~n_flows:2 ~rate_mbps:10.0
        ~frame_size:100 ());
  refused "exp_b jitter NaN" (fun () ->
      Patterns.exp_b ~rng:(rng ()) ~jitter:Float.nan ~n_flows:2
        ~packets_per_flow:2 ~concurrent:2 ~rate_mbps:10.0 ~frame_size:100 ());
  refused "negative prime_lead" (fun () ->
      Patterns.poisson_mix ~rng:(rng ()) ~prime_lead:(-0.1) ~n_packets:2
        ~miss_fraction:0.5 ~rate_mbps:10.0 ~frame_size:100 ());
  refused "negative idle_gap" (fun () ->
      Patterns.tcp_idle_resume ~rng:(rng ()) ~flow_id:1 ~first_burst:2
        ~idle_gap:(-1.0) ~second_burst:2 ~rate_mbps:10.0 ~frame_size:100 ());
  refused "negative frame size" (fun () ->
      Patterns.tcp_idle_resume ~rng:(rng ()) ~flow_id:1 ~first_burst:2
        ~idle_gap:1.0 ~second_burst:2 ~rate_mbps:10.0 ~frame_size:(-100) ());
  let plan =
    Patterns.exp_a ~rng:(rng ()) ~jitter:1.0 ~n_flows:200 ~rate_mbps:10.0
      ~frame_size:100 ()
  in
  Alcotest.(check bool) "jitter 1 stays sorted" true
    (Array.for_all Fun.id
       (Array.init 199 (fun i -> plan.times.(i) <= plan.times.(i + 1))))

(* Each gap is drawn after its injection, the last one's included, so
   a second plan drawn from the same stream (as in
   [examples/qos_scheduling.ml]) starts where it always did. *)
let test_udp_patterns_draw_per_injection () =
  let after build draws =
    let planned = Rng.of_int 11 and reference = Rng.of_int 11 in
    ignore (build planned);
    draws reference;
    Alcotest.(check (float 0.0)) "stream position" (Rng.float reference 1.0)
      (Rng.float planned 1.0)
  in
  let uniform rng n = for _ = 1 to n do ignore (Rng.uniform rng ~lo:0.0 ~hi:1.0) done in
  let exponential rng n =
    for _ = 1 to n do ignore (Rng.exponential rng ~mean:1.0) done
  in
  after
    (fun rng -> Patterns.exp_a ~rng ~n_flows:7 ~rate_mbps:10.0 ~frame_size:100 ())
    (fun rng -> uniform rng 7);
  after
    (fun rng ->
      Patterns.exp_b ~rng ~n_flows:4 ~packets_per_flow:3 ~concurrent:2
        ~rate_mbps:10.0 ~frame_size:100 ())
    (fun rng -> uniform rng 12);
  after
    (fun rng -> Patterns.udp_burst ~rng ~n_packets:5 ~rate_mbps:10.0 ~frame_size:100 ())
    (fun rng -> uniform rng 5);
  after
    (fun rng -> Patterns.poisson_flows ~rng ~n_flows:6 ~rate_mbps:10.0 ~frame_size:100 ())
    (fun rng -> exponential rng 6);
  after
    (fun rng ->
      Patterns.poisson_mix ~rng ~n_packets:4 ~miss_fraction:0.5 ~rate_mbps:10.0
        ~frame_size:100 ())
    (fun rng ->
      for _ = 1 to 4 do
        uniform rng 1;
        exponential rng 1
      done)

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
    Alcotest.test_case "tcp handshake then data" `Quick
      test_tcp_idle_resume_handshake;
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
    QCheck_alcotest.to_alcotest prop_template_matches_encoder;
    Alcotest.test_case "template sends a zero udp checksum as 0xffff" `Quick
      test_template_zero_udp_checksum;
    Alcotest.test_case "udp patterns reject frames too small for the tag"
      `Quick test_udp_patterns_reject_small_frames;
    Alcotest.test_case "udp patterns draw one gap per injection" `Quick
      test_udp_patterns_draw_per_injection;
    Alcotest.test_case "patterns refuse arguments that unsort a plan" `Quick
      test_patterns_refuse_unsorting_arguments;
  ]
