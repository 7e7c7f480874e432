(* Codec fuzzing: random messages over every constructor roundtrip
   through encode/decode, and mutilated buffers (truncated or
   bit-flipped) always come back as [Error _] or a decoded message —
   never an exception. *)

open Sdn_openflow
open Sdn_net
module Gen = QCheck.Gen

(* {2 Generators} *)

let gen_ascii n = Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 n))
let gen_bytes n = Gen.(map Bytes.of_string (string_size (int_range 0 n)))
let gen_u16 = Gen.int_range 0 0xFFFF
let gen_u8 = Gen.int_range 0 0xFF
let gen_i32 = Gen.(map Int32.of_int (int_range 0 0x3FFFFFFF))
let gen_i64 = Gen.(map Int64.of_int (int_range 0 0x3FFFFFFF))

let gen_mac =
  Gen.(
    map
      (fun (a, b, c, d, e, f) -> Mac.of_octets a b c d e f)
      (tup6 gen_u8 gen_u8 gen_u8 gen_u8 gen_u8 gen_u8))

let gen_ip =
  Gen.(map (fun (a, b, c, d) -> Ip.make a b c d) (tup4 gen_u8 gen_u8 gen_u8 gen_u8))

let gen_match =
  Gen.(
    let opt g = oneof [ return None; map Option.some g ] in
    map
      (fun ( (in_port, dl_src, dl_dst, dl_vlan, dl_vlan_pcp, dl_type),
             (nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst) ) ->
        {
          Of_match.in_port;
          dl_src;
          dl_dst;
          dl_vlan;
          dl_vlan_pcp;
          dl_type;
          nw_tos;
          nw_proto;
          nw_src;
          nw_dst;
          tp_src;
          tp_dst;
        })
      (tup2
         (tup6 (opt gen_u16) (opt gen_mac) (opt gen_mac)
            (opt (int_range 0 0xFFF))
            (opt (int_range 0 7))
            (opt gen_u16))
         (tup6 (opt gen_u8) (opt gen_u8)
            (opt (tup2 gen_ip (int_range 1 32)))
            (opt (tup2 gen_ip (int_range 1 32)))
            (opt gen_u16) (opt gen_u16))))

let gen_action =
  Gen.(
    oneof
      [
        map (fun (port, max_len) -> Of_action.Output { port; max_len })
          (tup2 gen_u16 gen_u16);
        map (fun v -> Of_action.Set_vlan_vid v) (int_range 0 0xFFF);
        map (fun v -> Of_action.Set_vlan_pcp v) (int_range 0 7);
        return Of_action.Strip_vlan;
        map (fun m -> Of_action.Set_dl_src m) gen_mac;
        map (fun m -> Of_action.Set_dl_dst m) gen_mac;
        map (fun ip -> Of_action.Set_nw_src ip) gen_ip;
        map (fun ip -> Of_action.Set_nw_dst ip) gen_ip;
        map (fun v -> Of_action.Set_nw_tos v) gen_u8;
        map (fun v -> Of_action.Set_tp_src v) gen_u16;
        map (fun v -> Of_action.Set_tp_dst v) gen_u16;
        map (fun (port, queue_id) -> Of_action.Enqueue { port; queue_id })
          (tup2 gen_u16 gen_i32);
      ])

let gen_actions = Gen.(list_size (int_range 0 4) gen_action)

let gen_error =
  Gen.(
    map
      (fun (error_type, code, data) -> { Of_error.error_type; code; data })
      (tup3
         (oneofl
            [
              Of_error.Hello_failed;
              Of_error.Bad_request;
              Of_error.Bad_action;
              Of_error.Flow_mod_failed;
              Of_error.Port_mod_failed;
              Of_error.Queue_op_failed;
            ])
         gen_u16 (gen_bytes 64)))

let gen_phy_port =
  Gen.(
    map
      (fun (port_no, hw_addr, name) -> { Of_features.port_no; hw_addr; name })
      (tup3 gen_u16 gen_mac (gen_ascii 15)))

let gen_features =
  Gen.(
    map
      (fun (datapath_id, n_buffers, n_tables, ports) ->
        Of_features.make ~datapath_id ~n_buffers ~n_tables ~ports)
      (tup4 gen_i64 (int_range 0 0xFFFF) gen_u8
         (list_size (int_range 0 4) gen_phy_port)))

let gen_config =
  Gen.(
    map
      (fun (flags, miss_send_len) -> { Of_config.flags; miss_send_len })
      (tup2 (int_range 0 3) gen_u16))

let gen_packet_in =
  Gen.(
    map
      (fun (buffer_id, total_len, in_port, reason, data) ->
        { Of_packet_in.buffer_id; total_len; in_port; reason; data })
      (tup5
         (oneof [ gen_i32; return Of_wire.no_buffer ])
         gen_u16 gen_u16
         (oneofl [ Of_packet_in.No_match; Of_packet_in.Action ])
         (gen_bytes 96)))

let gen_flow_removed =
  Gen.(
    map
      (fun ( (match_, cookie, priority, reason),
             (duration_sec, duration_nsec, idle_timeout, packet_count, byte_count)
           ) ->
        {
          Of_flow_removed.match_;
          cookie;
          priority;
          reason;
          duration_sec;
          duration_nsec;
          idle_timeout;
          packet_count;
          byte_count;
        })
      (tup2
         (tup4 gen_match gen_i64 gen_u16
            (oneofl
               [
                 Of_flow_removed.Idle_timeout;
                 Of_flow_removed.Hard_timeout;
                 Of_flow_removed.Delete;
               ]))
         (tup5 gen_i32 gen_i32 gen_u16 gen_i64 gen_i64)))

let gen_port_status =
  Gen.(
    map
      (fun (reason, port, link_down) -> { Of_port_status.reason; port; link_down })
      (tup3
         (oneofl
            [ Of_port_status.Add; Of_port_status.Delete; Of_port_status.Modify ])
         gen_phy_port bool))

let gen_packet_out =
  Gen.(
    oneof
      [
        (* Release of a buffered packet: no payload. *)
        map
          (fun (buffer_id, in_port, actions) ->
            { Of_packet_out.buffer_id; in_port; actions; data = Bytes.empty })
          (tup3 gen_i32 gen_u16 gen_actions);
        (* Full frame carried back (no-buffer case). *)
        map
          (fun (in_port, actions, data) ->
            { Of_packet_out.buffer_id = Of_wire.no_buffer; in_port; actions; data })
          (tup3 gen_u16 gen_actions (gen_bytes 96));
      ])

let gen_flow_mod =
  Gen.(
    map
      (fun ( (match_, cookie, command, idle_timeout, hard_timeout, priority),
             (buffer_id, out_port, send_flow_rem, check_overlap, actions) ) ->
        {
          Of_flow_mod.match_;
          cookie;
          command;
          idle_timeout;
          hard_timeout;
          priority;
          buffer_id;
          out_port;
          send_flow_rem;
          check_overlap;
          actions;
        })
      (tup2
         (tup6 gen_match gen_i64
            (oneofl
               [
                 Of_flow_mod.Add;
                 Of_flow_mod.Modify;
                 Of_flow_mod.Modify_strict;
                 Of_flow_mod.Delete;
                 Of_flow_mod.Delete_strict;
               ])
            gen_u16 gen_u16 gen_u16)
         (tup5
            (oneof [ gen_i32; return Of_wire.no_buffer ])
            gen_u16 bool bool gen_actions)))

let gen_stats_request =
  Gen.(
    oneof
      [
        return Of_stats.Desc_request;
        map
          (fun (match_, table_id, out_port) ->
            Of_stats.Flow_request { match_; table_id; out_port })
          (tup3 gen_match gen_u8 gen_u16);
        map
          (fun (match_, table_id, out_port) ->
            Of_stats.Aggregate_request { match_; table_id; out_port })
          (tup3 gen_match gen_u8 gen_u16);
        map (fun port_no -> Of_stats.Port_request { port_no }) gen_u16;
      ])

let gen_flow_stats =
  Gen.(
    map
      (fun ( (table_id, match_, duration_sec, duration_nsec, priority),
             (idle_timeout, hard_timeout, cookie, packet_count, byte_count),
             actions ) ->
        {
          Of_stats.table_id;
          match_;
          duration_sec;
          duration_nsec;
          priority;
          idle_timeout;
          hard_timeout;
          cookie;
          packet_count;
          byte_count;
          actions;
        })
      (tup3
         (tup5 gen_u8 gen_match gen_i32 gen_i32 gen_u16)
         (tup5 gen_u16 gen_u16 gen_i64 gen_i64 gen_i64)
         gen_actions))

let gen_port_stats =
  Gen.(
    map
      (fun (port_no, (rx_packets, tx_packets, rx_bytes, tx_bytes),
            (rx_dropped, tx_dropped, rx_errors, tx_errors)) ->
        {
          Of_stats.port_no;
          rx_packets;
          tx_packets;
          rx_bytes;
          tx_bytes;
          rx_dropped;
          tx_dropped;
          rx_errors;
          tx_errors;
        })
      (tup3 gen_u16
         (tup4 gen_i64 gen_i64 gen_i64 gen_i64)
         (tup4 gen_i64 gen_i64 gen_i64 gen_i64)))

let gen_stats_reply =
  Gen.(
    oneof
      [
        map
          (fun (mfr_desc, hw_desc, sw_desc, serial_num, dp_desc) ->
            Of_stats.Desc_reply { mfr_desc; hw_desc; sw_desc; serial_num; dp_desc })
          (tup5 (gen_ascii 20) (gen_ascii 20) (gen_ascii 20) (gen_ascii 20)
             (gen_ascii 20));
        map (fun l -> Of_stats.Flow_reply l) (list_size (int_range 0 3) gen_flow_stats);
        map
          (fun (packet_count, byte_count, flow_count) ->
            Of_stats.Aggregate_reply { packet_count; byte_count; flow_count })
          (tup3 gen_i64 gen_i64 gen_i32);
        map (fun l -> Of_stats.Port_reply l) (list_size (int_range 0 3) gen_port_stats);
      ])

(* Backoff durations are encoded as whole milliseconds, the multiplier
   as thousandths; generate on-grid values so roundtrips are exact. *)
let gen_vendor =
  Gen.(
    oneof
      [
        map
          (fun (timeout_ms, mult_milli, cap_ms, max_resends) ->
            Of_ext.Flow_buffer_enable
              {
                Of_ext.timeout = float_of_int timeout_ms /. 1000.0;
                multiplier = float_of_int (1000 + mult_milli) /. 1000.0;
                cap = float_of_int cap_ms /. 1000.0;
                max_resends;
              })
          (tup4 (int_range 1 60_000) (int_range 0 9000) (int_range 1 600_000)
             (int_range 0 100));
        return Of_ext.Flow_buffer_disable;
        return Of_ext.Flow_buffer_stats_request;
        map
          (fun (units_in_use, units_total, flows_buffered, packets_buffered, resends) ->
            Of_ext.Flow_buffer_stats_reply
              { Of_ext.units_in_use; units_total; flows_buffered; packets_buffered; resends })
          (tup5 gen_u16 gen_u16 gen_u16 gen_u16 gen_u16);
      ])

(* One generator spanning all 19 [Of_codec.msg] constructors. *)
let gen_msg =
  Gen.(
    oneof
      [
        return Of_codec.Hello;
        map (fun e -> Of_codec.Error_msg e) gen_error;
        map (fun b -> Of_codec.Echo_request b) (gen_bytes 32);
        map (fun b -> Of_codec.Echo_reply b) (gen_bytes 32);
        map (fun v -> Of_codec.Vendor v) gen_vendor;
        return Of_codec.Features_request;
        map (fun f -> Of_codec.Features_reply f) gen_features;
        return Of_codec.Get_config_request;
        map (fun c -> Of_codec.Get_config_reply c) gen_config;
        map (fun c -> Of_codec.Set_config c) gen_config;
        map (fun p -> Of_codec.Packet_in p) gen_packet_in;
        map (fun f -> Of_codec.Flow_removed f) gen_flow_removed;
        map (fun p -> Of_codec.Port_status p) gen_port_status;
        map (fun p -> Of_codec.Packet_out p) gen_packet_out;
        map (fun f -> Of_codec.Flow_mod f) gen_flow_mod;
        map (fun r -> Of_codec.Stats_request r) gen_stats_request;
        map (fun r -> Of_codec.Stats_reply r) gen_stats_reply;
        return Of_codec.Barrier_request;
        return Of_codec.Barrier_reply;
      ])

let arb_msg = QCheck.make ~print:(Format.asprintf "%a" Of_codec.pp) gen_msg

(* {2 Properties} *)

let prop_roundtrip =
  QCheck.Test.make ~name:"random message roundtrips" ~count:500 arb_msg
    (fun msg ->
      match Of_codec.decode (Of_codec.encode ~xid:77l msg) with
      | Ok (77l, msg') -> Of_codec.equal msg msg'
      | Ok _ -> false
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let decode_no_raise buf =
  match Of_codec.decode buf with
  | Ok _ -> `Ok
  | Error _ -> `Error
  | exception e ->
      QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)

let prop_truncation =
  QCheck.Test.make ~name:"truncated buffers decode to Error" ~count:500
    QCheck.(pair arb_msg (float_bound_inclusive 1.0))
    (fun (msg, cut_frac) ->
      let full = Of_codec.encode ~xid:1l msg in
      (* A strict prefix: the header's length field now exceeds the
         buffer (or the header itself is incomplete). *)
      let cut =
        min (Bytes.length full - 1)
          (int_of_float (cut_frac *. float_of_int (Bytes.length full)))
      in
      decode_no_raise (Bytes.sub full 0 (max 0 cut)) = `Error)

let prop_corruption_no_raise =
  QCheck.Test.make ~name:"corrupted buffers never raise" ~count:1000
    QCheck.(triple arb_msg (small_list (pair small_nat small_nat)) small_nat)
    (fun (msg, flips, extra) ->
      let buf = Of_codec.encode ~xid:9l msg in
      (* Flip random bytes in place... *)
      List.iter
        (fun (pos, value) ->
          if Bytes.length buf > 0 then
            Bytes.set_uint8 buf (pos mod Bytes.length buf) (value land 0xFF))
        flips;
      (* ...and optionally append garbage so the length field disagrees
         with the buffer in the other direction too. *)
      let buf =
        if extra mod 3 = 0 then Bytes.cat buf (Bytes.make (extra mod 16) '\xAA')
        else buf
      in
      ignore (decode_no_raise buf);
      true)

(* Deterministic single-example roundtrip over each of the 19
   constructors, so a codec regression names the constructor instead of
   a shrunk counterexample. *)
let test_each_constructor () =
  let sample gen = Gen.generate1 ~rand:(Random.State.make [| 7 |]) gen in
  let msgs =
    [
      Of_codec.Hello;
      Of_codec.Error_msg (sample gen_error);
      Of_codec.Echo_request (Bytes.of_string "ping");
      Of_codec.Echo_reply (Bytes.of_string "pong");
      Of_codec.Vendor (sample gen_vendor);
      Of_codec.Features_request;
      Of_codec.Features_reply (sample gen_features);
      Of_codec.Get_config_request;
      Of_codec.Get_config_reply (sample gen_config);
      Of_codec.Set_config (sample gen_config);
      Of_codec.Packet_in (sample gen_packet_in);
      Of_codec.Flow_removed (sample gen_flow_removed);
      Of_codec.Port_status (sample gen_port_status);
      Of_codec.Packet_out (sample gen_packet_out);
      Of_codec.Flow_mod (sample gen_flow_mod);
      Of_codec.Stats_request (sample gen_stats_request);
      Of_codec.Stats_reply (sample gen_stats_reply);
      Of_codec.Barrier_request;
      Of_codec.Barrier_reply;
    ]
  in
  Alcotest.(check int) "all 19 constructors covered" 19 (List.length msgs);
  List.iteri
    (fun i msg ->
      match Of_codec.decode (Of_codec.encode ~xid:(Int32.of_int i) msg) with
      | Ok (_, msg') ->
          Alcotest.(check bool)
            (Format.asprintf "roundtrip %a" Of_codec.pp msg)
            true (Of_codec.equal msg msg')
      | Error e -> Alcotest.fail (Format.asprintf "%a: %s" Of_codec.pp msg e))
    msgs

(* Regression for a corruption the fuzzer found: an 8-byte action
   relabelled as set_dl_src (a 16-byte action) at the end of a
   packet_out made the decoder read the MAC past the buffer. *)
let test_short_wide_action () =
  let msg =
    Of_codec.Packet_out (Of_packet_out.release ~buffer_id:7l ~out_port:3)
  in
  let buf = Of_codec.encode ~xid:1l msg in
  (* Header (8) + buffer_id, in_port, actions_len (8): the action's
     type field starts at byte 16. *)
  Bytes.set_uint16_be buf 16 4;
  Alcotest.(check bool) "short set_dl_src decodes to Error" true
    (decode_no_raise buf = `Error)

let suite =
  [
    Alcotest.test_case "each constructor roundtrips" `Quick test_each_constructor;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation;
    QCheck_alcotest.to_alcotest prop_corruption_no_raise;
    Alcotest.test_case "short 16-byte action is an error" `Quick
      test_short_wide_action;
  ]
