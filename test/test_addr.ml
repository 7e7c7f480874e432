(* Tests for MAC and IPv4 address types, and unit conversions. *)

open Sdn_net
open Sdn_sim

let test_mac_string_roundtrip () =
  let mac = Mac.of_octets 0xde 0xad 0xbe 0xef 0x00 0x42 in
  Alcotest.(check string) "to_string" "de:ad:be:ef:00:42" (Mac.to_string mac);
  Alcotest.(check bool) "of_string roundtrip" true
    (Mac.equal mac (Mac.of_string_exn (Mac.to_string mac)))

let test_mac_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (Result.is_error (Mac.of_string s)))
    [ "aa:bb:cc"; "aa:bb:cc:dd:ee:zz"; ""; "aa:bb:cc:dd:ee:ff:00"; "1ff:00:00:00:00:00" ]

let test_mac_bytes_roundtrip () =
  let mac = Mac.of_octets 1 2 3 4 5 6 in
  let buf = Bytes.make 8 '\xff' in
  Mac.write mac buf 1;
  Alcotest.(check bool) "read back" true (Mac.equal mac (Mac.read buf 1));
  (* Bytes outside the field untouched. *)
  Alcotest.(check char) "prefix" '\xff' (Bytes.get buf 0);
  Alcotest.(check char) "suffix" '\xff' (Bytes.get buf 7)

let test_mac_broadcast () =
  Alcotest.(check bool) "broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.(check bool) "zero not broadcast" false (Mac.is_broadcast Mac.zero);
  Alcotest.(check string) "broadcast text" "ff:ff:ff:ff:ff:ff"
    (Mac.to_string Mac.broadcast)

let test_mac_rejects_bad_octet () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mac.of_octets 256 0 0 0 0 0);
       false
     with Invalid_argument _ -> true)

(* The int64 model [Mac] was written against: the low 48 bits of an
   int64, hashed as [Int64.to_int v land max_int] and ordered by
   [Int64.compare]. Every hashtable keyed through [Mac.hash] iterates
   in an order fixed by these values. *)
let model_mask = 0xFFFF_FFFF_FFFFL

let model_octet v i =
  Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (5 - i))) 0xFFL)

let mac_value_gen =
  QCheck.Gen.(
    oneof
      [
        int64;
        oneofl
          [ 0L; 1L; -1L; model_mask; 0x8000_0000_0000L; 0x7FFF_FFFF_FFFFL;
            0xFFFF_0000_0000_0001L ];
      ])

let prop_mac_matches_int64_model =
  QCheck.Test.make ~name:"mac matches its int64 model" ~count:1000
    (QCheck.make
       ~print:(fun (a, b, off) -> Printf.sprintf "%Lx %Lx off=%d" a b off)
       QCheck.Gen.(
         let odd_offset = map (fun k -> (2 * k) + 1) (int_range 0 4) in
         triple mac_value_gen mac_value_gen odd_offset))
    (fun (a, b, off) ->
      let va = Int64.logand a model_mask and vb = Int64.logand b model_mask in
      let ma = Mac.of_int64 a and mb = Mac.of_int64 b in
      let buf = Bytes.make (off + 8) '\x5a' in
      Mac.write ma buf off;
      let octets_ok =
        List.for_all
          (fun i -> Bytes.get_uint8 buf (off + i) = model_octet va i)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let untouched =
        Bytes.get buf (off - 1) = '\x5a'
        && Bytes.get buf (off + 6) = '\x5a'
        && Bytes.get buf (off + 7) = '\x5a'
      in
      Int64.equal (Mac.to_int64 ma) va
      && octets_ok && untouched
      && Mac.equal (Mac.read buf off) ma
      && Mac.hash ma = Int64.to_int va land max_int
      && Int.compare (Mac.compare ma mb) 0 = Int.compare (Int64.compare va vb) 0
      && Bool.equal (Mac.equal ma mb) (Int64.equal va vb)
      && String.equal (Mac.to_string ma)
           (String.concat ":"
              (List.map
                 (fun i -> Printf.sprintf "%02x" (model_octet va i))
                 [ 0; 1; 2; 3; 4; 5 ]))
      && Bool.equal (Mac.is_broadcast ma) (Int64.equal va model_mask))

let test_ip_string_roundtrip () =
  let ip = Ip.make 192 168 1 200 in
  Alcotest.(check string) "to_string" "192.168.1.200" (Ip.to_string ip);
  Alcotest.(check bool) "roundtrip" true
    (Ip.equal ip (Ip.of_string_exn "192.168.1.200"))

let test_ip_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (Result.is_error (Ip.of_string s)))
    [ "1.2.3"; "1.2.3.4.5"; "1.2.3.256"; "a.b.c.d"; "" ]

let test_ip_unsigned_compare () =
  let low = Ip.make 1 0 0 0 and high = Ip.make 200 0 0 0 in
  (* 200.0.0.0 has the sign bit set in int32; unsigned compare must
     still put it above 1.0.0.0. *)
  Alcotest.(check bool) "unsigned order" true (Ip.compare low high < 0)

let test_ip_prefix_match () =
  let prefix = Ip.make 10 1 0 0 in
  Alcotest.(check bool) "inside /16" true
    (Ip.matches_prefix ~prefix ~bits:16 (Ip.make 10 1 200 3));
  Alcotest.(check bool) "outside /16" false
    (Ip.matches_prefix ~prefix ~bits:16 (Ip.make 10 2 0 1));
  Alcotest.(check bool) "/0 matches all" true
    (Ip.matches_prefix ~prefix ~bits:0 (Ip.make 8 8 8 8));
  Alcotest.(check bool) "/32 exact" false
    (Ip.matches_prefix ~prefix ~bits:32 (Ip.make 10 1 0 1))

let test_ip_bytes_roundtrip () =
  let ip = Ip.make 172 16 254 1 in
  let buf = Bytes.create 4 in
  Ip.write ip buf 0;
  Alcotest.(check bool) "roundtrip" true (Ip.equal ip (Ip.read buf 0))

let test_units () =
  Alcotest.(check (float 1e-9)) "mbps" 5e6 (Units.mbps_to_bps 5.0);
  Alcotest.(check (float 1e-9)) "bps" 5.0 (Units.bps_to_mbps 5e6);
  Alcotest.(check (float 1e-12)) "tx time" 80e-6
    (Units.transmission_time ~bytes:1000 ~bandwidth_bps:100e6);
  Alcotest.(check (float 1e-12)) "ms" 2e-3 (Units.ms 2.0);
  Alcotest.(check (float 1e-12)) "us" 3e-6 (Units.us 3.0);
  Alcotest.(check (float 1e-9)) "pps of 1000B at 100Mbps" 12500.0
    (Units.packets_per_second ~rate_mbps:100.0 ~frame_bytes:1000)

let suite =
  [
    Alcotest.test_case "mac string roundtrip" `Quick test_mac_string_roundtrip;
    Alcotest.test_case "mac parse errors" `Quick test_mac_parse_errors;
    Alcotest.test_case "mac bytes roundtrip" `Quick test_mac_bytes_roundtrip;
    Alcotest.test_case "mac broadcast" `Quick test_mac_broadcast;
    Alcotest.test_case "mac rejects bad octet" `Quick test_mac_rejects_bad_octet;
    QCheck_alcotest.to_alcotest prop_mac_matches_int64_model;
    Alcotest.test_case "ip string roundtrip" `Quick test_ip_string_roundtrip;
    Alcotest.test_case "ip parse errors" `Quick test_ip_parse_errors;
    Alcotest.test_case "ip unsigned compare" `Quick test_ip_unsigned_compare;
    Alcotest.test_case "ip prefix matching" `Quick test_ip_prefix_match;
    Alcotest.test_case "ip bytes roundtrip" `Quick test_ip_bytes_roundtrip;
    Alcotest.test_case "unit conversions" `Quick test_units;
  ]
