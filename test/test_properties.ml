(* Deeper property tests: the flow table against a reference model,
   whole-platform conservation invariants across random configurations,
   and shape regressions that pin the reproduced curves. *)

open Sdn_net
open Sdn_openflow
open Sdn_core

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2

let pkt_of_port src_port =
  Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(Ip.make 10 0 0 1)
    ~dst_ip:(Ip.make 10 0 0 2) ~src_port ~dst_port:9
    ~payload:(Bytes.of_string "p") ()

let entry_of_port ?(out_port = 2) ~hard src_port ~now =
  Sdn_switch.Flow_entry.of_flow_mod
    (Of_flow_mod.add ~idle_timeout:0 ~hard_timeout:hard
       ~match_:(Of_match.of_flow_key (Option.get (Packet.flow_key (pkt_of_port src_port))))
       ~actions:[ Of_action.output out_port ]
       ())
    ~now

(* Model-based test: a flow table restricted to exact 5-tuple rules
   must behave like a map from source port to output port. The clock
   steps one second per operation; an insert may carry a hard timeout,
   and the expiry sweep removes the rules whose timeout has run out. *)
type table_op = Insert of int * int * int | Expire | Lookup of int

let arbitrary_ops =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map3
              (fun p o hard -> Insert (1 + (p mod 20), 1 + (o mod 5), hard))
              nat nat (int_range 0 20) );
          (1, return Expire);
          (5, map (fun p -> Lookup (1 + (p mod 20))) nat);
        ])
  in
  QCheck.make QCheck.Gen.(list_size (int_range 1 120) gen_op)

let out_port_of (e : Sdn_switch.Flow_entry.t) =
  match e.Sdn_switch.Flow_entry.actions with
  | [ Of_action.Output { port; _ } ] -> port
  | _ -> -1

let prop_flow_table_matches_model =
  QCheck.Test.make ~name:"flow table behaves like a port map" ~count:150
    arbitrary_ops (fun ops ->
      let table = Sdn_switch.Flow_table.create ~capacity:64 () in
      (* source port -> (output port, expiry time or infinity) *)
      let model = Hashtbl.create 16 in
      let now = ref 0.0 in
      List.for_all
        (fun op ->
          now := !now +. 1.0;
          match op with
          | Insert (src, out, hard) ->
              ignore
                (Sdn_switch.Flow_table.insert table
                   (entry_of_port ~out_port:out ~hard src ~now:!now));
              Hashtbl.replace model src
                (out, if hard = 0 then Float.infinity else !now +. float_of_int hard);
              true
          | Expire ->
              (* Which rules went, the lookups and the final size show. *)
              let due =
                Hashtbl.fold
                  (fun src (_, until) acc -> if until <= !now then src :: acc else acc)
                  model []
              in
              List.iter (Hashtbl.remove model) due;
              Sdn_switch.Flow_table.expire table ~now:!now = List.length due
          | Lookup src -> (
              let expected = Option.map fst (Hashtbl.find_opt model src) in
              let actual =
                Option.map out_port_of
                  (Sdn_switch.Flow_table.lookup table ~in_port:1 (pkt_of_port src))
              in
              match (expected, actual) with
              | None, None -> true
              | Some e, Some a -> e = a
              | None, Some _ | Some _, None -> false))
        ops
      && Sdn_switch.Flow_table.length table = Hashtbl.length model)

(* Whole-platform conservation across random configurations. *)
let arbitrary_config =
  let gen =
    QCheck.Gen.(
      map3
        (fun mech_idx rate_idx wl_idx ->
          let mechanism, buffer =
            match mech_idx mod 3 with
            | 0 -> (Config.No_buffer, 0)
            | 1 -> (Config.Packet_granularity, 32)
            | _ -> (Config.Flow_granularity, 32)
          in
          let rate = float_of_int (20 + (rate_idx mod 5) * 20) in
          let workload =
            match wl_idx mod 3 with
            | 0 -> Config.Exp_a { n_flows = 60 }
            | 1 -> Config.Exp_b { n_flows = 10; packets_per_flow = 6; concurrent = 5 }
            | _ -> Config.Udp_burst { n_packets = 60 }
          in
          {
            Config.default with
            Config.mechanism;
            buffer_capacity = buffer;
            rate_mbps = rate;
            workload;
            seed = 1 + (mech_idx + rate_idx + wl_idx) mod 97;
          })
        nat nat nat)
  in
  QCheck.make gen

let prop_conservation =
  QCheck.Test.make ~name:"packet conservation across random configs" ~count:40
    arbitrary_config (fun config ->
      let r = Experiment.run config in
      let expected = Config.packets_expected config in
      (* Everything injected is observed; nothing is created. *)
      r.Experiment.packets_in = expected
      && r.Experiment.packets_out <= r.Experiment.packets_in
      (* With a reliable control channel nothing is lost either. *)
      && r.Experiment.packets_out + r.Experiment.packets_dropped
         >= r.Experiment.packets_in
      && r.Experiment.flows_completed <= r.Experiment.flows_started
      (* At least one request per flow that missed. *)
      && r.Experiment.pkt_ins >= r.Experiment.flows_started)

let prop_requests_bounded_by_packets =
  QCheck.Test.make ~name:"requests never exceed misses" ~count:40
    arbitrary_config (fun config ->
      let r = Experiment.run config in
      (* Every PACKET_IN stems from a miss-match packet (or a timed
         re-request); without resends the count is bounded by the
         number of injected packets. *)
      r.Experiment.pkt_ins - r.Experiment.pkt_in_resends
      <= r.Experiment.packets_in)

(* Shape regressions: pin the reproduced curves so a calibration change
   that breaks a figure's shape fails loudly. *)
let run_a ~mechanism ~buffer ~rate =
  Experiment.run
    {
      (Config.exp_a ~mechanism ~buffer_capacity:buffer ~rate_mbps:rate ~seed:3) with
      Config.workload = Config.Exp_a { n_flows = 400 };
    }

let test_shape_no_buffer_blowup () =
  let low = run_a ~mechanism:Config.No_buffer ~buffer:0 ~rate:30.0 in
  let high = run_a ~mechanism:Config.No_buffer ~buffer:0 ~rate:95.0 in
  Alcotest.(check bool)
    (Printf.sprintf "setup delay blows up past 70 Mbps (%.2f -> %.2f ms)"
       (low.Experiment.setup_delay.Experiment.mean *. 1e3)
       (high.Experiment.setup_delay.Experiment.mean *. 1e3))
    true
    (high.Experiment.setup_delay.Experiment.mean
     > 5.0 *. low.Experiment.setup_delay.Experiment.mean)

let test_shape_buffer256_stability () =
  let low = run_a ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:30.0 in
  let high = run_a ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:95.0 in
  Alcotest.(check bool)
    (Printf.sprintf "buffer-256 stays stable (%.2f -> %.2f ms)"
       (low.Experiment.setup_delay.Experiment.mean *. 1e3)
       (high.Experiment.setup_delay.Experiment.mean *. 1e3))
    true
    (high.Experiment.setup_delay.Experiment.mean
     < 2.0 *. low.Experiment.setup_delay.Experiment.mean)

let test_shape_buffer16_exhaustion_knee () =
  let at20 = run_a ~mechanism:Config.Packet_granularity ~buffer:16 ~rate:20.0 in
  let at60 = run_a ~mechanism:Config.Packet_granularity ~buffer:16 ~rate:60.0 in
  Alcotest.(check int) "no fallbacks below the knee" 0
    at20.Experiment.full_packet_fallbacks;
  Alcotest.(check bool) "fallbacks above the knee" true
    (at60.Experiment.full_packet_fallbacks > 0)

let test_shape_load_ratio () =
  (* Fig 2(a): buffered load ~ 0.21 x rate; no-buffer ~ 1.08 x rate. *)
  let b = run_a ~mechanism:Config.Packet_granularity ~buffer:256 ~rate:50.0 in
  let nb = run_a ~mechanism:Config.No_buffer ~buffer:0 ~rate:50.0 in
  let ratio_b = b.Experiment.ctrl_load_up_mbps /. 50.0 in
  let ratio_nb = nb.Experiment.ctrl_load_up_mbps /. 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "buffered slope ~0.21 (got %.3f)" ratio_b)
    true
    (ratio_b > 0.15 && ratio_b < 0.3);
  Alcotest.(check bool)
    (Printf.sprintf "no-buffer slope ~1.08 (got %.3f)" ratio_nb)
    true
    (ratio_nb > 0.9 && ratio_nb < 1.25)

let test_shape_exp_b_divergence () =
  let run_b mechanism rate =
    Experiment.run (Config.exp_b ~mechanism ~rate_mbps:rate ~seed:3)
  in
  let p30 = run_b Config.Packet_granularity 30.0 in
  let f30 = run_b Config.Flow_granularity 30.0 in
  let p95 = run_b Config.Packet_granularity 95.0 in
  let f95 = run_b Config.Flow_granularity 95.0 in
  (* Fig 9(a): equal at low rates, diverging past ~40 Mbps. *)
  Alcotest.(check int) "same requests at 30 Mbps" p30.Experiment.pkt_ins
    f30.Experiment.pkt_ins;
  Alcotest.(check bool)
    (Printf.sprintf "packet granularity needs >2x requests at 95 (%d vs %d)"
       p95.Experiment.pkt_ins f95.Experiment.pkt_ins)
    true
    (p95.Experiment.pkt_ins > 2 * f95.Experiment.pkt_ins)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_flow_table_matches_model;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_requests_bounded_by_packets;
    Alcotest.test_case "shape: no-buffer delay blow-up" `Quick
      test_shape_no_buffer_blowup;
    Alcotest.test_case "shape: buffer-256 stability" `Quick
      test_shape_buffer256_stability;
    Alcotest.test_case "shape: buffer-16 exhaustion knee" `Quick
      test_shape_buffer16_exhaustion_knee;
    Alcotest.test_case "shape: Fig 2(a) load slopes" `Quick test_shape_load_ratio;
    Alcotest.test_case "shape: Exp-B request divergence" `Quick
      test_shape_exp_b_divergence;
  ]
