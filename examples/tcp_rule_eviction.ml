(* Section VI.B discussion: why the buffer also helps TCP.

   A TCP connection is established (3-way handshake), transfers a burst
   of data, then goes quiet for longer than the rule's idle timeout.
   The switch kicks the rule out of its size-limited flow table — but
   the connection is NOT terminated. When the transfer resumes, its
   full-size data segments are miss-match packets again, exactly like a
   sudden UDP burst.

   Run with:  dune exec examples/tcp_rule_eviction.exe

   This example drives the scenario through the public API directly
   (building the platform, scheduling a custom injection plan, reading
   the trackers), rather than through the canned [Experiment] runner. *)

open Sdn_core
open Sdn_measure
open Sdn_traffic
module Flow_table = Sdn_switch.Flow_table

let idle_timeout = 2 (* seconds: installed rules expire after this *)

let run mechanism buffer_capacity =
  let config =
    {
      Config.default with
      Config.mechanism;
      buffer_capacity;
      rule_idle_timeout = idle_timeout;
      seed = 3;
    }
  in
  let scenario = Scenario.build config in
  let engine = scenario.Scenario.engine in
  (* Handshake, 30 data segments, 4 s of silence (> idle timeout),
     then 30 more segments on the same established connection. *)
  let plan =
    Patterns.tcp_idle_resume ~rng:scenario.Scenario.traffic_rng ~start:0.05
      ~flow_id:1 ~first_burst:30 ~idle_gap:4.0 ~second_burst:30
      ~rate_mbps:60.0 ~frame_size:1000 ()
  in
  Pktgen.schedule engine
    ~inject:(fun ~in_port frame -> Scenario.inject scenario ~in_port frame)
    plan;
  Scenario.run_until_quiet ~min_time:(Pktgen.stats_of plan).Pktgen.last scenario;
  let cap = scenario.Scenario.capture in
  let counters = Sdn_switch.Switch.counters scenario.Scenario.switch in
  let table = Sdn_switch.Switch.flow_table scenario.Scenario.switch in
  ( Config.label config,
    counters.Sdn_switch.Switch.pkt_ins_sent,
    Capture.bytes cap Capture.To_controller,
    Capture.bytes cap Capture.To_switch,
    Flow_table.(expirations table),
    scenario.Scenario.host2_received + scenario.Scenario.host1_received )

let () =
  Printf.printf
    "TCP flow: handshake, 30 segments, %d s idle (rule idle timeout %d s),\n\
     then 30 more segments on the SAME established connection.\n\n"
    4 idle_timeout;
  let rows =
    List.map
      (fun (label, pkt_ins, up_bytes, down_bytes, expired, delivered) ->
        [
          label;
          string_of_int pkt_ins;
          string_of_int up_bytes;
          string_of_int down_bytes;
          string_of_int expired;
          string_of_int delivered;
        ])
      [
        run Config.No_buffer 0;
        run Config.Packet_granularity 256;
        run Config.Flow_granularity 256;
      ]
  in
  Report.print_table
    ~header:
      [
        "mechanism"; "requests"; "bytes to ctrl"; "bytes to switch";
        "rules expired"; "frames delivered";
      ]
    ~rows;
  Printf.printf
    "\nThe idle period expires the rule, so the resumed burst misses again:\n\
     with no buffer, every resumed full-size segment travels to the\n\
     controller and back in whole; with the switch buffer only headers\n\
     travel. The connection never noticed — this is the paper's argument\n\
     that buffering benefits TCP too, not just UDP.\n"
