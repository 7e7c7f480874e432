(* Tests for the RFC 1071 Internet checksum. *)

open Sdn_net

let test_rfc1071_example () =
  (* The classic example from RFC 1071 section 3. *)
  let buf =
    Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7"
  in
  Alcotest.(check int) "running sum" 0xddf2 (Checksum.sum buf 0 8);
  Alcotest.(check int) "checksum" (lnot 0xddf2 land 0xFFFF)
    (Checksum.over buf 0 8)

let test_odd_length_padded () =
  let buf = Bytes.of_string "\xab" in
  (* A single byte is treated as 0xab00. *)
  Alcotest.(check int) "sum" 0xab00 (Checksum.sum buf 0 1)

let test_verify_self_checksummed_region () =
  let buf = Bytes.make 12 '\000' in
  Bytes.set_uint16_be buf 0 0x1234;
  Bytes.set_uint16_be buf 2 0xabcd;
  Bytes.set_uint16_be buf 8 0x0001;
  let csum = Checksum.over buf 0 12 in
  Bytes.set_uint16_be buf 4 csum;
  Alcotest.(check bool) "verifies" true (Checksum.verify buf 0 12);
  Bytes.set_uint16_be buf 8 0x0002;
  Alcotest.(check bool) "corruption detected" false (Checksum.verify buf 0 12)

let test_add_carries () =
  Alcotest.(check int) "end-around carry" 2 (Checksum.add 0xFFFF 2);
  Alcotest.(check int) "no carry" 0x0005 (Checksum.add 2 3)

let test_bounds_checked () =
  let buf = Bytes.create 4 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Checksum.sum buf 2 4);
       false
     with Invalid_argument _ -> true)

(* The plain RFC 1071 loop, one 16-bit word at a time: the reference
   the lane-parallel [Checksum.sum] must match on every region. *)
let reference_sum buf off len =
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

type fill = Random_bytes | Zeros | Ones

let fill_buffer fill contents =
  match fill with
  | Random_bytes -> Bytes.of_string contents
  | Zeros -> Bytes.make (String.length contents) '\x00'
  | Ones -> Bytes.make (String.length contents) '\xff'

(* A region of 0-1600 bytes at offset 0-7 inside a buffer with up to 7
   bytes of slack after it. A length of 32q + r ends the lane loop in
   every tail: 8-byte steps for r >= 8, 16-bit words for r mod 8 >= 2,
   the odd byte for odd r. *)
let region_gen =
  QCheck.Gen.(
    let* fill = oneofl [ Random_bytes; Random_bytes; Zeros; Ones ] in
    let* off = int_range 0 7 in
    let* len =
      oneof
        [
          int_range 0 1600;
          map2 (fun q r -> (32 * q) + r) (int_range 0 49) (int_range 0 31);
        ]
    in
    let* slack = int_range 0 7 in
    let+ contents = string_size ~gen:char (return (off + len + slack)) in
    (fill_buffer fill contents, off, len))

let print_region (buf, off, len) =
  Printf.sprintf "off=%d len=%d buf=%S" off len (Bytes.to_string buf)

let prop_matches_reference =
  QCheck.Test.make ~name:"sum equals the 16-bit reference loop" ~count:1000
    (QCheck.make ~print:print_region region_gen)
    (fun (buf, off, len) ->
      Checksum.sum buf off len = reference_sum buf off len)

let test_every_tail_matches_reference () =
  (* Every length up to three lane blocks, at an even and an odd
     offset, on random, all-0x00 and all-0xFF bytes: all-zero regions
     sum to 0 and all-one regions to 0xFFFF, the two representatives
     of zero. *)
  let rng = Random.State.make [| 15 |] in
  let random = Bytes.init 200 (fun _ -> Char.chr (Random.State.int rng 256)) in
  List.iter
    (fun (name, buf) ->
      for off = 0 to 1 do
        for len = 0 to 96 do
          Alcotest.(check int)
            (Printf.sprintf "%s off=%d len=%d" name off len)
            (reference_sum buf off len) (Checksum.sum buf off len)
        done
      done)
    [
      ("random", random);
      ("zeros", Bytes.make 200 '\x00');
      ("ones", Bytes.make 200 '\xff');
    ];
  Alcotest.(check int) "all-zero is 0" 0 (Checksum.sum (Bytes.make 64 '\x00') 0 64);
  Alcotest.(check int) "all-one is 0xFFFF" 0xFFFF
    (Checksum.sum (Bytes.make 64 '\xff') 0 64)

(* Addresses at or above 128.0.0.0 have the int32 sign bit set: the
   arithmetic pseudo-header must read them unsigned. *)
let prop_pseudo_header_matches_bytes =
  let gen =
    QCheck.Gen.(
      let high = map (fun x -> Int32.logor x Int32.min_int) int32 in
      quad high high (int_range 0 255) (int_range 0 0xFFFF))
  in
  QCheck.Test.make ~name:"pseudo-header sum equals the summed 12 bytes"
    ~count:500
    (QCheck.make
       ~print:(fun (s, d, p, l) -> Printf.sprintf "%lx %lx proto=%d len=%d" s d p l)
       gen)
    (fun (src, dst, proto, l4_len) ->
      let src_ip = Ip.of_int32 src and dst_ip = Ip.of_int32 dst in
      let buf = Bytes.make 12 '\x00' in
      Ip.write src_ip buf 0;
      Ip.write dst_ip buf 4;
      Bytes.set_uint8 buf 9 proto;
      Bytes.set_uint16_be buf 10 l4_len;
      Udp.pseudo_header_sum ~src_ip ~dst_ip ~proto ~l4_len
      = Checksum.sum buf 0 12)

let prop_incremental_split =
  (* Summing a region equals combining the sums of an even-length
     prefix and the remaining suffix. *)
  QCheck.Test.make ~name:"checksum splits at even offsets" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 2 64)) small_int)
    (fun (s, k) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let split = min (2 * (k mod ((n / 2) + 1))) n in
      let whole = Checksum.sum buf 0 n in
      let parts =
        Checksum.add (Checksum.sum buf 0 split)
          (Checksum.sum buf split (n - split))
      in
      whole = parts)

let prop_detects_single_flip =
  QCheck.Test.make ~name:"single 16-bit word flip changes checksum" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.return 16)) (int_bound 7))
    (fun (s, word) ->
      let buf = Bytes.of_string s in
      let before = Checksum.over buf 0 16 in
      let v = Bytes.get_uint16_be buf (2 * word) in
      Bytes.set_uint16_be buf (2 * word) (v lxor 0x5555);
      let after = Checksum.over buf 0 16 in
      before <> after)

let suite =
  [
    Alcotest.test_case "RFC 1071 example" `Quick test_rfc1071_example;
    Alcotest.test_case "odd trailing byte" `Quick test_odd_length_padded;
    Alcotest.test_case "verify self-checksummed region" `Quick
      test_verify_self_checksummed_region;
    Alcotest.test_case "carry folding in add" `Quick test_add_carries;
    Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
    QCheck_alcotest.to_alcotest prop_incremental_split;
    QCheck_alcotest.to_alcotest prop_detects_single_flip;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "every tail matches the reference" `Quick
      test_every_tail_matches_reference;
    QCheck_alcotest.to_alcotest prop_pseudo_header_matches_bytes;
  ]
