(* Benchmark harness: Bechamel micro-benchmarks of the building blocks
   (codec, flow table, buffer pools, event engine) — the cost of the
   mechanisms themselves, independent of any scenario. The paper's
   figures and the ablation studies come from the CLI
   ([sdn_buffer_cli all], [figure], [ablations]).

   Usage:
     dune exec bench/main.exe                 # micro-benchmarks
     dune exec bench/main.exe -- micro        # the same
     dune exec bench/main.exe -- json [path]  # machine-readable snapshot
                                              # (default BENCH_pr28.json)

   The json snapshot also times a small end-to-end sweep at
   --jobs 1/2/4 and records the parallel speedups, so the regression
   gate tracks the Task_pool scaling factor alongside the micro
   subjects.
*)

open Bechamel
open Toolkit

(* ---- Micro-benchmark subjects ---- *)

let mac1 = Sdn_net.Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Sdn_net.Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Sdn_net.Ip.make 10 0 0 1
let ip2 = Sdn_net.Ip.make 10 0 0 2

let sample_packet =
  Sdn_net.Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1
    ~dst_ip:ip2 ~src_port:1000 ~dst_port:9 ~frame_size:1000
    ~payload_fill:(fun _ -> ())

let sample_frame = Sdn_net.Packet.encode sample_packet

let sample_pkt_in_full =
  Sdn_openflow.Of_codec.encode ~xid:1l
    (Sdn_openflow.Of_codec.Packet_in
       (Sdn_openflow.Of_packet_in.make ~buffer_id:Sdn_openflow.Of_wire.no_buffer
          ~in_port:1 ~reason:Sdn_openflow.Of_packet_in.No_match
          ~frame:sample_frame ~miss_send_len:None))

let sample_pkt_in_buffered =
  Sdn_openflow.Of_codec.encode ~xid:1l
    (Sdn_openflow.Of_codec.Packet_in
       (Sdn_openflow.Of_packet_in.make ~buffer_id:7l ~in_port:1
          ~reason:Sdn_openflow.Of_packet_in.No_match ~frame:sample_frame
          ~miss_send_len:(Some 128)))

let sample_flow_mod =
  Sdn_openflow.Of_flow_mod.add
    ~match_:
      (Sdn_openflow.Of_match.of_flow_key
         (Option.get (Sdn_net.Packet.flow_key sample_packet)))
    ~actions:[ Sdn_openflow.Of_action.output 2 ]
    ()

(* Hoisted message value: the FLOW_MOD encode subject measures the
   encoder, not per-call variant/record construction. *)
let sample_flow_mod_msg = Sdn_openflow.Of_codec.Flow_mod sample_flow_mod

(* Exact rule [i] of [populated_table]. *)
let populated_rule i =
  let key =
    Sdn_net.Flow_key.make ~proto:17
      ~src_ip:(Sdn_net.Ip.of_int32 (Int32.of_int (0x0A010000 + i)))
      ~dst_ip:ip2 ~src_port:(1000 + (i mod 16384)) ~dst_port:9
  in
  Sdn_switch.Flow_entry.of_flow_mod
    (Sdn_openflow.Of_flow_mod.add
       ~match_:(Sdn_openflow.Of_match.of_flow_key key)
       ~actions:[ Sdn_openflow.Of_action.output 2 ]
       ())
    ~now:0.0

(* A populated flow table for lookup benchmarks: [n] exact 5-tuple
   rules plus [wildcards] low-priority wildcarded rules (the default
   rules a reactive deployment carries), which force the slow path to
   run its linear scan. *)
let populated_table ?(wildcards = 0) n =
  let table = Sdn_switch.Flow_table.create ~capacity:(2 * (n + wildcards)) () in
  for i = 0 to n - 1 do
    ignore (Sdn_switch.Flow_table.insert table (populated_rule i))
  done;
  for i = 0 to wildcards - 1 do
    (* Distinct ingress ports no benchmark packet arrives on: scanned
       by every slow-path lookup, matched by none. *)
    let fm =
      Sdn_openflow.Of_flow_mod.add ~priority:0
        ~match_:
          { Sdn_openflow.Of_match.wildcard_all with
            Sdn_openflow.Of_match.in_port = Some (10_000 + i) }
        ~actions:[ Sdn_openflow.Of_action.output 3 ]
        ()
    in
    ignore
      (Sdn_switch.Flow_table.insert table
         (Sdn_switch.Flow_entry.of_flow_mod fm ~now:0.0))
  done;
  table

(* Re-installing rule 0 replaces it, so the table keeps its [n] rules
   from run to run: the cost of one install at that size. *)
let insert_replace n =
  let table = populated_table n in
  let entry = populated_rule 0 in
  Staged.stage (fun () -> ignore (Sdn_switch.Flow_table.insert table entry))

(* The plain RFC 1071 loop, one 16-bit word at a time: what
   [Checksum.sum] replaced, kept here as the speed reference. *)
let reference_checksum buf off len =
  let s = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    s := !s + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then s := !s + (Bytes.get_uint8 buf !i lsl 8);
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

(* A packet that matches rule [i] of [populated_table]. *)
let populated_packet i =
  Sdn_net.Packet.udp ~src_mac:mac1 ~dst_mac:mac2
    ~src_ip:(Sdn_net.Ip.of_int32 (Int32.of_int (0x0A010000 + i)))
    ~dst_ip:ip2 ~src_port:(1000 + (i mod 16384)) ~dst_port:9
    ~payload:(Bytes.of_string "x")
    ()

let hit_packet = populated_packet 0

(* The [Pktgen.schedule] that queued a whole traffic plan at set-up,
   one [Engine.schedule_at] per injection: the reference for
   [derived/plan_stream_speedup]. *)
let schedule_upfront engine ~inject (plan : Sdn_traffic.Patterns.t) =
  Array.iteri
    (fun i time ->
      ignore
        (Sdn_sim.Engine.schedule_at engine time (fun () ->
             inject ~in_port:plan.ports.(i) (plan.frame i))))
    plan.times

(* Schedule and drain a 2,000-injection plan at 100 Mbps on a fresh
   engine; each injection schedules one follow-on event 20 µs later,
   as a link delivery would, so a few are in flight beside the plan.
   Every injection hands over one prebuilt 64-B frame, so both
   subjects gauge the queue, not frame building. *)
let plan_2k schedule =
  let plan =
    Sdn_traffic.Patterns.udp_burst ~rng:(Sdn_sim.Rng.of_int 7) ~n_packets:2000
      ~rate_mbps:100.0 ~frame_size:64 ()
  in
  let frame = plan.frame 0 in
  let plan = { plan with frame = (fun _ -> frame) } in
  Staged.stage (fun () ->
      let engine = Sdn_sim.Engine.create () in
      schedule engine
        ~inject:(fun ~in_port:_ _ ->
          ignore (Sdn_sim.Engine.schedule engine ~delay:2e-5 ignore))
        plan;
      Sdn_sim.Engine.run engine)

(* One 1000-B Exp-A frame, built by a plan from its template and, as
   the reference, by the general encoder. *)
let udp_frame_plan =
  Sdn_traffic.Patterns.exp_a ~rng:(Sdn_sim.Rng.of_int 7) ~n_flows:1
    ~rate_mbps:100.0 ~frame_size:1000 ()

let reference_udp_frame () =
  let a = Sdn_traffic.Addressing.default in
  Sdn_net.Packet.encode
    (Sdn_net.Packet.udp_frame_of_size ~src_mac:a.src_mac ~dst_mac:a.dst_mac
       ~src_ip:(Sdn_traffic.Addressing.src_ip a ~flow_id:0)
       ~dst_ip:a.dst_ip
       ~src_port:(Sdn_traffic.Addressing.src_port a ~flow_id:0)
       ~dst_port:a.dst_port ~frame_size:1000
       ~payload_fill:
         (Sdn_traffic.Tag.write
            { Sdn_traffic.Tag.flow_id = 0; seq = 0; flow_packets = 1 }))

(* Measured before [micro_tests] builds its fixtures (see [bench_raw]). *)
let early_tests () =
  [
    Test.make ~name:"net/checksum-1000B"
      (Staged.stage (fun () ->
           ignore (Sdn_net.Checksum.sum sample_frame 0 1000)));
    Test.make ~name:"net/checksum-1000B-reference"
      (Staged.stage (fun () -> ignore (reference_checksum sample_frame 0 1000)));
    Test.make ~name:"traffic/udp-frame-1000B"
      (Staged.stage (fun () -> ignore (udp_frame_plan.frame 0)));
    Test.make ~name:"traffic/udp-frame-1000B-reference"
      (Staged.stage (fun () -> ignore (reference_udp_frame ())));
  ]

let micro_tests () =
  let open Sdn_net in
  let open Sdn_openflow in
  let table1000 = populated_table 1000 in
  [
    Test.make ~name:"packet/encode-1000B"
      (Staged.stage (fun () -> ignore (Packet.encode sample_packet)));
    Test.make ~name:"packet/decode-1000B"
      (Staged.stage (fun () -> ignore (Packet.decode sample_frame)));
    Test.make ~name:"packet/peek-headers"
      (Staged.stage (fun () -> ignore (Packet.peek_headers sample_frame)));
    Test.make ~name:"openflow/encode-pkt_in-no-buffer"
      (Staged.stage (fun () ->
           ignore
             (Of_codec.encode ~xid:1l
                (Of_codec.Packet_in
                   (Of_packet_in.make ~buffer_id:Of_wire.no_buffer ~in_port:1
                      ~reason:Of_packet_in.No_match ~frame:sample_frame
                      ~miss_send_len:None)))));
    Test.make ~name:"openflow/encode-pkt_in-buffered"
      (Staged.stage (fun () ->
           ignore
             (Of_codec.encode ~xid:1l
                (Of_codec.Packet_in
                   (Of_packet_in.make ~buffer_id:7l ~in_port:1
                      ~reason:Of_packet_in.No_match ~frame:sample_frame
                      ~miss_send_len:(Some 128))))));
    Test.make ~name:"openflow/decode-pkt_in-no-buffer"
      (Staged.stage (fun () -> ignore (Of_codec.decode sample_pkt_in_full)));
    Test.make ~name:"openflow/decode-pkt_in-buffered"
      (Staged.stage (fun () -> ignore (Of_codec.decode sample_pkt_in_buffered)));
    Test.make ~name:"openflow/encode-flow_mod"
      (Staged.stage (fun () ->
           ignore (Of_codec.encode ~xid:1l sample_flow_mod_msg)));
    Test.make ~name:"flow-table/lookup-hit-1000-rules"
      (Staged.stage (fun () ->
           ignore (Sdn_switch.Flow_table.lookup table1000 ~in_port:1 hit_packet)));
    Test.make ~name:"flow-table/lookup-miss-1000-rules"
      (Staged.stage
         (let miss_packet =
            Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(Ip.make 192 168 0 1)
              ~dst_ip:ip2 ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
          in
          fun () ->
            ignore (Sdn_switch.Flow_table.lookup table1000 ~in_port:1 miss_packet)));
    (* What every data frame costs the switch on a microflow hit: the
       validity check, the key read in place and a probe of the warm
       cache, for one valid 64-B frame that matches rule 0. *)
    Test.make ~name:"flow-table/lookup-frame-hit-64B"
      (Staged.stage
         (let frame =
            Packet.encode
              (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2
                 ~src_ip:(Ip.of_int32 0x0A010000l) ~dst_ip:ip2 ~src_port:1000
                 ~dst_port:9 ~frame_size:64 ~payload_fill:ignore)
          in
          ignore (Sdn_switch.Flow_table.lookup_frame table1000 ~in_port:1 frame);
          fun () ->
            match Packet.validate frame with
            | Ok () ->
                ignore
                  (Sdn_switch.Flow_table.lookup_frame table1000 ~in_port:1 frame)
            | Error _ -> ()));
    Test.make ~name:"flow-table/insert-replace-100-rules" (insert_replace 100);
    Test.make ~name:"flow-table/insert-replace-2000-rules" (insert_replace 2000);
    Test.make ~name:"buffer/packet-granularity-alloc-take"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Packet_buffer.create engine ~capacity:256 ~expiry:1e9
              ~reclaim_lag:0.0 ()
          in
          fun () ->
            match Sdn_switch.Packet_buffer.alloc pool ~frame:sample_frame with
            | Some id ->
                ignore (Sdn_switch.Packet_buffer.take pool id);
                (* Drain the engine so reclaim events do not pile up. *)
                Sdn_sim.Engine.run engine
            | None -> ()));
    Test.make ~name:"buf-policy/dt-admit-release"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Buf_policy.create
              ~kind:(Sdn_switch.Buf_policy.Dt { alpha = 2.0 })
              ~name:"bench" engine
          in
          let cls =
            Sdn_switch.Buf_policy.register pool ~name:"cls" ~quota:256
              ~priority:1
          in
          fun () ->
            if Sdn_switch.Buf_policy.admit cls then
              Sdn_switch.Buf_policy.release cls));
    Test.make ~name:"buf-policy/tdt-note_delay"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Buf_policy.create
              ~kind:
                (Sdn_switch.Buf_policy.Tdt
                   { alpha0 = 2.0; target_delay = 2e-3 })
              ~name:"bench" engine
          in
          let cls =
            Sdn_switch.Buf_policy.register pool ~name:"cls" ~quota:256
              ~priority:1
          in
          fun () -> Sdn_switch.Buf_policy.note_delay cls 1e-3));
    Test.make ~name:"buffer/flow-granularity-add-take_all"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Flow_buffer.create engine ~capacity:256 ~reclaim_lag:0.0
              ~resend_timeout:1e9 ~max_resends:0
              ~on_resend:(fun ~buffer_id:_ ~key:_ ~first_frame:_ -> ())
              ()
          in
          let key = Option.get (Sdn_net.Packet.flow_key sample_packet) in
          fun () ->
            match Sdn_switch.Flow_buffer.add pool ~key ~frame:sample_frame with
            | Sdn_switch.Flow_buffer.First id ->
                ignore (Sdn_switch.Flow_buffer.add pool ~key ~frame:sample_frame);
                ignore (Sdn_switch.Flow_buffer.take_all pool id);
                Sdn_sim.Engine.run engine
            | Sdn_switch.Flow_buffer.Appended _ | Sdn_switch.Flow_buffer.No_space
              ->
                ()));
    (* The flow buffer's chain index: is a chain held for this flow,
       with 256 chains held, each run asking for the next flow. *)
    Test.make ~name:"buffer/flow-chain-lookup-256"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Flow_buffer.create engine ~capacity:256 ~reclaim_lag:0.0
              ~resend_timeout:1e9 ~max_resends:0
              ~on_resend:(fun ~buffer_id:_ ~key:_ ~first_frame:_ -> ())
              ()
          in
          let keys = Array.init 256 (fun i -> Option.get (Sdn_net.Packet.flow_key (populated_packet i))) in
          Array.iter
            (fun key ->
              ignore (Sdn_switch.Flow_buffer.add pool ~key ~frame:sample_frame))
            keys;
          let next = ref 0 in
          fun () ->
            next := (!next + 1) land 255;
            ignore (Sdn_switch.Flow_buffer.has_chain pool ~key:keys.(!next))));
    Test.make ~name:"engine/schedule-run-event"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          fun () ->
            ignore (Sdn_sim.Engine.schedule engine ~delay:1e-9 (fun () -> ()));
            ignore (Sdn_sim.Engine.step engine)));
    (* ---- Hot-path subjects: fast vs slow classification and
       O(log n) cancellation. ---- *)
    Test.make ~name:"flow-table/lookup-cached-1k-mixed"
      (Staged.stage
         (let table = populated_table ~wildcards:32 968 in
          fun () ->
            ignore (Sdn_switch.Flow_table.lookup table ~in_port:1 hit_packet)));
    Test.make ~name:"flow-table/lookup-uncached-1k-mixed"
      (Staged.stage
         (let table = populated_table ~wildcards:32 968 in
          fun () ->
            ignore
              (Sdn_switch.Flow_table.lookup_uncached table ~in_port:1
                 hit_packet)));
    (* The switch's slow path: a valid frame that matches rule 0,
       arriving on a new ingress port each run. Its microflow key is
       new, and the 65,536 ports outlast the 8,192-answer cache, so
       every run misses the cache, matches the exact bucket and the 32
       wildcard rules against the key's words and caches the answer. *)
    Test.make ~name:"flow-table/lookup-frame-miss-1k-mixed"
      (Staged.stage
         (let table = populated_table ~wildcards:32 968 in
          let frame = Packet.encode hit_packet in
          let port = ref 0 in
          fun () ->
            port := (!port + 1) land 0xFFFF;
            ignore
              (Sdn_switch.Flow_table.lookup_frame table ~in_port:!port frame)));
    Test.make ~name:"engine/schedule-cancel"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          fun () ->
            Sdn_sim.Engine.cancel
              (Sdn_sim.Engine.schedule engine ~delay:1.0 (fun () -> ()))));
    (* One pop and one push on a queue holding 25,000 events: each
       run dispatches the earliest event, which reschedules itself
       after an Rng-drawn delay. No shipped workload queues that many
       since traffic plans stream in (over the first perfbench pass,
       seed 1, the queue peaks at 20 events on hit_path, 73 on
       paper_sweep and table_scale and 49 on crash_recovery); the
       subject pins the queue's cost at a large size. *)
    Test.make ~name:"engine/churn-25k-pending"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let rng = Sdn_sim.Rng.of_int 7 in
          let rec fire () =
            ignore
              (Sdn_sim.Engine.schedule engine
                 ~delay:(Sdn_sim.Rng.float rng 1e-3)
                 fire)
          in
          for _ = 1 to 25_000 do
            fire ()
          done;
          fun () -> ignore (Sdn_sim.Engine.step_batch engine)));
    (* One dispatch on a queue of 20 events, the size the workloads
       reach: four re-armable streams, as links and CPU cores keep,
       each re-arming itself after an Rng-drawn delay; eight timers
       that each schedule their successor; and one guard per timer,
       due a second later, which each timer run cancels and sets
       again, as an answered re-request timeout is. *)
    Test.make ~name:"engine/mixed-20-pending"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let rng = Sdn_sim.Rng.of_int 7 in
          let streams = ref [||] in
          let stream i () =
            Sdn_sim.Engine.arm_after !streams.(i)
              ~delay:(Sdn_sim.Rng.float rng 2e-4)
          in
          streams := Array.init 4 (fun i -> Sdn_sim.Engine.event engine (stream i));
          Array.iteri (fun i _ -> stream i ()) !streams;
          let guards =
            Array.init 8 (fun _ -> Sdn_sim.Engine.schedule engine ~delay:1.0 ignore)
          in
          let timers = Array.make 8 ignore in
          let timer i () =
            ignore
              (Sdn_sim.Engine.schedule engine
                 ~delay:(Sdn_sim.Rng.float rng 8e-4)
                 timers.(i));
            Sdn_sim.Engine.cancel guards.(i);
            guards.(i) <- Sdn_sim.Engine.schedule engine ~delay:1.0 ignore
          in
          Array.iteri
            (fun i _ ->
              timers.(i) <- timer i;
              timer i ())
            timers;
          fun () -> ignore (Sdn_sim.Engine.step engine)));
    (* One sample into an accumulator that keeps no samples, so the
       subject gauges the running moments alone: what the delay
       trackers, the egress queues and the session pay per recorded
       delay. The sample is read from an array, so it reaches [add]
       boxed, as a computed delay does. *)
    Test.make ~name:"stats/add"
      (Staged.stage
         (let stats = Sdn_sim.Stats.create ~keep_samples:false () in
          let samples = Float.Array.init 64 (fun i -> 1e-4 *. float_of_int i) in
          let i = ref 0 in
          fun () ->
            i := (!i + 1) land 63;
            Sdn_sim.Stats.add stats (Float.Array.get samples !i)));
    (* ---- Event streams: what one message on a jitter-free link, one
       job on a 2-core CPU with lognormal service noise and one noise
       draw allocate. Each run sends or submits one and dispatches the
       engine's next event, which delivers or completes it. ---- *)
    Test.make ~name:"link/send-deliver-64B"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let frame = Bytes.make 64 '\000' in
          let link =
            Sdn_sim.Link.create engine ~name:"bench" ~bandwidth_bps:1e9
              ~propagation_s:1e-6 ~receiver:ignore ()
          in
          fun () ->
            Sdn_sim.Link.send link ~size:64 frame;
            ignore (Sdn_sim.Engine.step engine)));
    Test.make ~name:"cpu/submit-complete"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let rng = Sdn_sim.Rng.of_int 7 in
          let cpu =
            Sdn_sim.Cpu.create engine ~name:"bench" ~cores:2
              ~noise:(fun () -> Sdn_sim.Rng.lognormal_factor rng ~sigma:0.08)
              ()
          in
          fun () ->
            Sdn_sim.Cpu.submit cpu ~work_s:1e-5 ignore;
            ignore (Sdn_sim.Engine.step engine)));
    Test.make ~name:"rng/lognormal-factor"
      (Staged.stage
         (let rng = Sdn_sim.Rng.of_int 7 in
          fun () -> ignore (Sdn_sim.Rng.lognormal_factor rng ~sigma:0.08)));
    (* Both delay taps on one tagged 64-B frame, of a flow too long
       to finish: a known flow's ingress and a mid-flow egress, what
       every data frame costs the measurement layer. *)
    Test.make ~name:"measure/delay-taps-64B"
      (Staged.stage
         (let a = Sdn_traffic.Addressing.default in
          let frame =
            Packet.encode
              (Packet.udp_frame_of_size ~src_mac:a.src_mac ~dst_mac:a.dst_mac
                 ~src_ip:(Sdn_traffic.Addressing.src_ip a ~flow_id:0)
                 ~dst_ip:a.dst_ip
                 ~src_port:(Sdn_traffic.Addressing.src_port a ~flow_id:0)
                 ~dst_port:a.dst_port ~frame_size:64
                 ~payload_fill:
                   (Sdn_traffic.Tag.write
                      {
                        Sdn_traffic.Tag.flow_id = 0;
                        seq = 0;
                        flow_packets = Int32.(to_int max_int);
                      }))
          in
          let delay = Sdn_measure.Delay.create () in
          fun () ->
            Sdn_measure.Delay.on_switch_ingress delay ~time:0.0 frame;
            Sdn_measure.Delay.on_switch_egress delay ~time:1e-6 frame));
    (* A traffic plan streamed through the queue, next injection only,
       against the same plan queued whole at set-up. *)
    Test.make ~name:"engine/plan-2k-stream"
      (plan_2k Sdn_traffic.Pktgen.schedule);
    Test.make ~name:"engine/plan-2k-upfront" (plan_2k schedule_upfront);
    (* The analytical oracle's full evaluation for one operating point:
       the three-station Jackson solve, the feedback model, and the
       Erlang-B loss recursion at buffer-16. Pure closed-form float
       work — the gate pins its cost so the validation suite's
       prediction side stays negligible next to the simulator runs. *)
    Test.make ~name:"model/oracle-eval-point"
      (Staged.stage
         (let kernel =
            { Sdn_model.Jackson.name = "kernel"; service = 2e-6; servers = 1 }
          in
          let userspace =
            { Sdn_model.Jackson.name = "userspace"; service = 8e-6; servers = 1 }
          in
          let controller =
            {
              Sdn_model.Jackson.name = "controller";
              service = 250e-6;
              servers = 2;
            }
          in
          let params =
            {
              Sdn_model.Feedback.lambda = 2000.0;
              packet_in_prob = 0.5;
              switch_service = 10e-6;
              switch_servers = 1;
              controller_service = 250e-6;
              controller_servers = 2;
              loop_delay = 400e-6;
            }
          in
          fun () ->
            let net =
              Sdn_model.Jackson.solve ~arrival_rate:2000.0
                [ (kernel, 4.0); (userspace, 3.0); (controller, 1.0) ]
            in
            let fb = Sdn_model.Feedback.eval params in
            let b = Sdn_model.Mm1.erlang_b ~servers:16 ~offered_load:8.0 in
            ignore (Sdn_model.Jackson.response_time net);
            ignore fb.Sdn_model.Feedback.sojourn;
            ignore b));
    (* ---- Crash–restart subjects: what a cold restart costs. The
       wipe/rebuild cycle is the switch-side snapshot loss (buffered
       packets expired, flow entries cleared, then state re-grown);
       the stats round-trip is the reconciliation audit's wire work
       (one wildcard FLOW reply carrying the switch's table). ---- *)
    Test.make ~name:"crash/cold-wipe-restore-16"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Packet_buffer.create engine ~capacity:32 ~expiry:1e9
              ~reclaim_lag:0.0 ()
          in
          let table = Sdn_switch.Flow_table.create ~capacity:64 () in
          let mods =
            List.init 16 (fun i ->
                let key =
                  Sdn_net.Flow_key.make ~proto:17
                    ~src_ip:
                      (Sdn_net.Ip.of_int32 (Int32.of_int (0x0A020000 + i)))
                    ~dst_ip:ip2 ~src_port:(2000 + i) ~dst_port:9
                in
                Sdn_openflow.Of_flow_mod.add
                  ~match_:(Sdn_openflow.Of_match.of_flow_key key)
                  ~actions:[ Sdn_openflow.Of_action.output 2 ]
                  ())
          in
          fun () ->
            List.iter
              (fun fm ->
                ignore
                  (Sdn_switch.Packet_buffer.alloc pool ~frame:sample_frame);
                ignore
                  (Sdn_switch.Flow_table.insert table
                     (Sdn_switch.Flow_entry.of_flow_mod fm ~now:0.0)))
              mods;
            ignore (Sdn_switch.Packet_buffer.wipe pool);
            ignore (Sdn_switch.Flow_table.clear table)));
    Test.make ~name:"crash/reconcile-flow-stats-64"
      (Staged.stage
         (let stats =
            List.init 64 (fun i ->
                let key =
                  Sdn_net.Flow_key.make ~proto:17
                    ~src_ip:
                      (Sdn_net.Ip.of_int32 (Int32.of_int (0x0A030000 + i)))
                    ~dst_ip:ip2 ~src_port:(3000 + i) ~dst_port:9
                in
                {
                  Sdn_openflow.Of_stats.table_id = 0;
                  match_ = Sdn_openflow.Of_match.of_flow_key key;
                  duration_sec = 1l;
                  duration_nsec = 0l;
                  priority = 32768;
                  idle_timeout = 0;
                  hard_timeout = 0;
                  cookie = 0L;
                  packet_count = 10L;
                  byte_count = 10_000L;
                  actions = [ Sdn_openflow.Of_action.output 2 ];
                })
          in
          let reply =
            Sdn_openflow.Of_codec.Stats_reply
              (Sdn_openflow.Of_stats.Flow_reply stats)
          in
          fun () ->
            ignore
              (Sdn_openflow.Of_codec.decode
                 (Sdn_openflow.Of_codec.encode ~xid:1l reply))));
  ]

(* Bechamel's stock [Instance.minor_allocated] reads
   [(Gc.quick_stat ()).minor_words], which on OCaml 5.1 only advances
   at minor collections — sample windows short enough to fit in the
   young heap read an exact zero.  The dedicated [Gc.minor_words]
   primitive includes in-flight young-heap allocation, so register our
   own measure on top of it. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* Bechamel compacts the heap before every sample. With the fixtures of
   [micro_tests] live (populated tables, a 25k-event engine) each
   compaction takes most of the time quota, leaving a sub-microsecond
   subject a handful of cold-cache samples; the checksum pair, whose
   ratio CI floors, read 3.1-5.0 across five snapshots that way. So
   the gated pairs run first, while the heap holds only the sample
   frames. *)
let bench_raw ~instances =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let run tests =
    Benchmark.all cfg instances (Test.make_grouped ~name:"micro" tests)
  in
  let raw = run (early_tests ()) in
  (* Subject names are distinct, so the merge is independent of
     iteration order. lint: allow hashtbl-order *)
  Hashtbl.iter (Hashtbl.replace raw) (run (micro_tests ()));
  raw

let analyze raw instance =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols instance raw

(* Per-subject per-run OLS estimates, name-sorted for determinism. *)
let collect_estimates results =
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> (name, e) :: acc
      | Some [] | None -> acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run_micro () =
  print_endline "== Micro-benchmarks (Bechamel, ns/run) ==";
  let raw = bench_raw ~instances:Instance.[ monotonic_clock ] in
  let results = analyze raw Instance.monotonic_clock in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%12.1f" e
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      rows := (name, estimate, r2) :: !rows)
    results;
  let rows =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows
  in
  Printf.printf "%-50s %14s %8s\n" "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, est, r2) -> Printf.printf "%-50s %14s %8s\n" name est r2)
    rows;
  print_newline ()

(* ---- Sweep throughput: the macro subject behind [--jobs]. ----

   A deliberately small Exp-A grid (4 rates x 2 reps = 8 independent
   replications, 60 flows each) run to completion at jobs = 1, 2 and
   4.  Bechamel's per-run OLS model fits ns-scale subjects, not a
   multi-millisecond macro job, so whole sweeps are timed directly
   against the monotonic clock, best of three after a warm-up.  The
   derived speedups are the portable metrics: absolute wall-clock
   cancels out of the ratio, leaving the Task_pool scaling factor.
   On a single-core host the ratio sits below 1 (extra domains only
   add stop-the-world minor-GC synchronisation); on a multi-core CI
   runner it must not regress below the recorded baseline. *)

let sweep_config ~rate_mbps ~seed =
  {
    (Sdn_core.Config.exp_a ~mechanism:Sdn_core.Config.Packet_granularity
       ~buffer_capacity:256 ~rate_mbps ~seed)
    with
    Sdn_core.Config.workload = Sdn_core.Config.Exp_a { n_flows = 60 };
  }

let time_sweep ~jobs =
  let run () =
    ignore
      (Sdn_core.Sweep.run ~label:"bench-sweep"
         ~rates:[ 20.0; 40.0; 60.0; 80.0 ] ~reps:2 ~jobs sweep_config)
  in
  run ();
  let now () = Monotonic_clock.get () in
  let best = ref Float.infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    run ();
    let dt = now () -. t0 in
    if Float.compare dt !best < 0 then best := dt
  done;
  !best

let sweep_metrics () =
  let timings = List.map (fun jobs -> (jobs, time_sweep ~jobs)) [ 1; 2; 4 ] in
  let absolute =
    List.map
      (fun (jobs, ns) -> (Printf.sprintf "sweep/exp_a-small/jobs%d/ns" jobs, ns))
      timings
  in
  let t1 = List.assoc 1 timings in
  let speedups =
    List.filter_map
      (fun (jobs, ns) ->
        if jobs = 1 || Float.compare ns 1e-9 <= 0 then None
        else
          Some (Printf.sprintf "derived/sweep_speedup_jobs%d" jobs, t1 /. ns))
      timings
  in
  (absolute, speedups)

(* ---- The massive scenario, scaled down to bench size: the sharded
   full pipeline.  The ns rate is informational (host-dependent). *)
let massive_metrics () =
  let t0 = Monotonic_clock.get () in
  let pl = Sdn_core.Massive.run_pipeline ~flows:20_000 ~shards:4 () in
  let pl_ns = Monotonic_clock.get () -. t0 in
  [
    ("massive/pipeline-small/ns-per-event",
     pl_ns /. float_of_int pl.Sdn_core.Massive.pl_sim_events);
    ("massive/pipeline-small/sim-events",
     float_of_int pl.Sdn_core.Massive.pl_sim_events);
  ]

(* ---- Machine-readable benchmark snapshot (the regression gate's
   input): every subject's ns/run and minor-words/run, plus derived
   higher-is-better ratios that are stable across machines. ---- *)

let find_metric metrics suffix =
  List.find_map
    (fun (name, v) ->
      let ls = String.length suffix and ln = String.length name in
      if ln >= ls && String.equal (String.sub name (ln - ls) ls) suffix then
        Some v
      else None)
    metrics

let run_json path =
  let raw = bench_raw ~instances:[ Instance.monotonic_clock; minor_words ] in
  let ns = collect_estimates (analyze raw Instance.monotonic_clock) in
  let words = collect_estimates (analyze raw minor_words) in
  let ratio num den =
    match (num, den) with
    | Some a, Some b when Float.compare b 1e-9 > 0 -> Some (a /. b)
    | Some _, Some _ | Some _, None | None, Some _ | None, None -> None
  in
  let derived =
    List.filter_map
      (fun (name, v) -> Option.map (fun v -> (name, v)) v)
      [
        (* How much faster the microflow fast path answers a warm
           lookup than the full classification on a 1k-entry table. *)
        ( "derived/flow_table_cache_speedup",
          ratio
            (find_metric ns "flow-table/lookup-uncached-1k-mixed")
            (find_metric ns "flow-table/lookup-cached-1k-mixed") );
        (* Install cost at 100 rules over the cost at 2000: ~1 when an
           install is independent of table size, ~0.05 when it scans
           the table. *)
        ( "derived/flow_table_insert_flatness",
          ratio
            (find_metric ns "flow-table/insert-replace-100-rules")
            (find_metric ns "flow-table/insert-replace-2000-rules") );
        (* The lane-parallel checksum against the 16-bit loop it
           replaced, over the same 1000 bytes. *)
        ( "derived/checksum_speedup",
          ratio
            (find_metric ns "net/checksum-1000B-reference")
            (find_metric ns "net/checksum-1000B") );
        (* The general encoder against a plan's template, building
           the same 1000-B frame. *)
        ( "derived/udp_frame_template_speedup",
          ratio
            (find_metric ns "traffic/udp-frame-1000B-reference")
            (find_metric ns "traffic/udp-frame-1000B") );
        (* A 2,000-injection plan queued whole at set-up against the
           same plan streamed one injection at a time. *)
        ( "derived/plan_stream_speedup",
          ratio
            (find_metric ns "engine/plan-2k-upfront")
            (find_metric ns "engine/plan-2k-stream") );
      ]
  in
  let sweep_absolute, sweep_speedups = sweep_metrics () in
  let massive = massive_metrics () in
  let metrics =
    List.map (fun (n, v) -> (n ^ "/ns", v)) ns
    @ List.map (fun (n, v) -> (n ^ "/minor-words", v)) words
    @ sweep_absolute @ derived @ sweep_speedups @ massive
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"schema\": \"sdn-buffer-bench/1\",\n";
      Printf.fprintf oc "  \"metrics\": {\n";
      let n = List.length metrics in
      List.iteri
        (fun i (name, v) ->
          Printf.fprintf oc "    \"%s\": %.6g%s\n" name v
            (if i = n - 1 then "" else ","))
        metrics;
      Printf.fprintf oc "  }\n}\n");
  List.iter
    (fun (name, v) -> Printf.printf "%-60s %14.3f\n" name v)
    (derived @ sweep_speedups @ massive);
  Printf.printf "wrote %d metrics to %s\n" (List.length metrics) path

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "micro" ] -> run_micro ()
  | [ _; "json" ] -> run_json "BENCH_pr28.json"
  | [ _; "json"; path ] -> run_json path
  | _ ->
      prerr_endline "usage: main.exe [micro|json [path]]";
      exit 2
