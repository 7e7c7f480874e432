(* Tests for the OpenFlow 1.0 match structure and wildcards. *)

open Sdn_net
open Sdn_openflow

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Ip.make 10 0 0 1
let ip2 = Ip.make 10 0 0 2

let udp_pkt ?(src_ip = ip1) ?(src_port = 1000) () =
  Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip ~dst_ip:ip2 ~src_port
    ~dst_port:9 ~payload:(Bytes.of_string "x") ()

let test_wildcard_all_matches_everything () =
  let pkt = udp_pkt () in
  Alcotest.(check bool) "matches udp" true
    (Of_match.matches Of_match.wildcard_all ~in_port:1 pkt);
  let arp =
    Packet.arp ~src_mac:mac1 ~dst_mac:Mac.broadcast
      (Arp.request ~sender_mac:mac1 ~sender_ip:ip1 ~target_ip:ip2)
  in
  Alcotest.(check bool) "matches arp" true
    (Of_match.matches Of_match.wildcard_all ~in_port:7 arp)

let test_exact_match_self () =
  let pkt = udp_pkt () in
  let m = Of_match.exact_of_packet ~in_port:1 pkt in
  Alcotest.(check bool) "matches itself" true (Of_match.matches m ~in_port:1 pkt);
  Alcotest.(check bool) "wrong in_port" false (Of_match.matches m ~in_port:2 pkt);
  Alcotest.(check bool) "different src port" false
    (Of_match.matches m ~in_port:1 (udp_pkt ~src_port:1001 ()))

let test_flow_key_match () =
  let pkt = udp_pkt () in
  let key = Option.get (Packet.flow_key pkt) in
  let m = Of_match.of_flow_key key in
  Alcotest.(check bool) "matches on any port" true
    (Of_match.matches m ~in_port:5 pkt);
  Alcotest.(check bool) "rejects other flow" false
    (Of_match.matches m ~in_port:5 (udp_pkt ~src_ip:(Ip.make 10 9 9 9) ()))

let test_prefix_wildcard () =
  let m =
    {
      Of_match.wildcard_all with
      Of_match.dl_type = Some Ethernet.ethertype_ipv4;
      nw_src = Some (Ip.make 10 0 0 0, 8);
    }
  in
  Alcotest.(check bool) "10.x matches /8" true
    (Of_match.matches m ~in_port:1 (udp_pkt ~src_ip:(Ip.make 10 200 3 4) ()));
  let other =
    Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(Ip.make 11 0 0 1)
      ~dst_ip:ip2 ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
  in
  Alcotest.(check bool) "11.x does not" false (Of_match.matches m ~in_port:1 other)

let test_wire_roundtrip_exact () =
  let m = Of_match.exact_of_packet ~in_port:3 (udp_pkt ()) in
  let buf = Bytes.make Of_match.size '\000' in
  Of_match.write m buf 0;
  match Of_match.read buf 0 with
  | Ok m' -> Alcotest.(check bool) "equal" true (Of_match.equal m m')
  | Error msg -> Alcotest.fail msg

let test_wire_roundtrip_wildcards () =
  let m =
    {
      Of_match.wildcard_all with
      Of_match.dl_type = Some Ethernet.ethertype_ipv4;
      nw_dst = Some (Ip.make 10 1 0 0, 16);
      nw_proto = Some 17;
    }
  in
  let buf = Bytes.make Of_match.size '\000' in
  Of_match.write m buf 0;
  match Of_match.read buf 0 with
  | Ok m' -> Alcotest.(check bool) "equal incl. prefix bits" true (Of_match.equal m m')
  | Error msg -> Alcotest.fail msg

let test_wire_roundtrip_all_wildcard () =
  let buf = Bytes.make Of_match.size '\000' in
  Of_match.write Of_match.wildcard_all buf 0;
  match Of_match.read buf 0 with
  | Ok m' ->
      Alcotest.(check bool) "still matches everything" true
        (Of_match.equal Of_match.wildcard_all m')
  | Error msg -> Alcotest.fail msg

let test_subsumption () =
  let pkt = udp_pkt () in
  let exact = Of_match.exact_of_packet ~in_port:1 pkt in
  let key = Of_match.of_flow_key (Option.get (Packet.flow_key pkt)) in
  Alcotest.(check bool) "wildcard subsumes exact" true
    (Of_match.subsumes ~general:Of_match.wildcard_all ~specific:exact);
  Alcotest.(check bool) "5-tuple subsumes exact" true
    (Of_match.subsumes ~general:key ~specific:exact);
  Alcotest.(check bool) "exact does not subsume 5-tuple" false
    (Of_match.subsumes ~general:exact ~specific:key);
  Alcotest.(check bool) "subsumes self" true
    (Of_match.subsumes ~general:exact ~specific:exact)

let test_prefix_subsumption () =
  let wide =
    { Of_match.wildcard_all with Of_match.nw_src = Some (Ip.make 10 0 0 0, 8) }
  in
  let narrow =
    { Of_match.wildcard_all with Of_match.nw_src = Some (Ip.make 10 1 0 0, 16) }
  in
  Alcotest.(check bool) "/8 subsumes /16 inside it" true
    (Of_match.subsumes ~general:wide ~specific:narrow);
  Alcotest.(check bool) "/16 does not subsume /8" false
    (Of_match.subsumes ~general:narrow ~specific:wide)

let prop_match_roundtrip =
  let arbitrary =
    let gen =
      QCheck.Gen.(
        map
          (fun (use_port, port, a, bits) ->
            {
              Of_match.wildcard_all with
              Of_match.in_port = (if use_port then Some (port land 0xffff) else None);
              dl_type = Some Ethernet.ethertype_ipv4;
              nw_proto = Some 17;
              nw_src = Some (Ip.make 10 (a land 0xff) 0 0, 1 + (bits mod 32));
              tp_dst = Some (port land 0xffff);
            })
          (quad bool nat nat nat))
    in
    QCheck.make gen
  in
  QCheck.Test.make ~name:"match wire roundtrip" ~count:200 arbitrary (fun m ->
      let buf = Bytes.make Of_match.size '\000' in
      Of_match.write m buf 0;
      match Of_match.read buf 0 with
      | Ok m' -> Of_match.equal m m'
      | Error _ -> false)

let prop_exact_always_matches_source =
  let arbitrary =
    QCheck.make
      QCheck.Gen.(
        map2
          (fun port src_port ->
            (1 + (port mod 16), udp_pkt ~src_port:(1 + (src_port land 0x7fff)) ()))
          nat nat)
  in
  QCheck.Test.make ~name:"exact_of_packet matches its packet" ~count:100
    arbitrary (fun (in_port, pkt) ->
      Of_match.matches (Of_match.exact_of_packet ~in_port pkt) ~in_port pkt)

(* [Of_match.hash] keys the controller's flow view, so it must agree
   with [Of_match.equal]. Each field is drawn from a tiny domain
   (wildcard or one of two values, prefixes of two lengths), and the
   partner match re-draws one field, so over a third of the pairs are
   equal. A match read back from its wire encoding is rebuilt from
   fresh boxes and must be equal to, and hash like, the original. *)
let prop_hash_agrees_with_equal =
  let open QCheck.Gen in
  let field values = oneof [ return None; map Option.some (oneofl values) ] in
  let prefix =
    oneof
      [
        return None;
        map2
          (fun ip bits -> Some (ip, bits))
          (oneofl [ Ip.make 10 0 0 1; Ip.make 10 0 0 0 ])
          (oneofl [ 24; 32 ]);
      ]
  in
  let set m i =
    match i with
    | 0 -> map (fun v -> { m with Of_match.in_port = v }) (field [ 1; 2 ])
    | 1 -> map (fun v -> { m with Of_match.dl_src = v }) (field [ mac1; mac2 ])
    | 2 -> map (fun v -> { m with Of_match.dl_dst = v }) (field [ mac1; mac2 ])
    | 3 -> map (fun v -> { m with Of_match.dl_vlan = v }) (field [ 1; 2 ])
    | 4 -> map (fun v -> { m with Of_match.dl_vlan_pcp = v }) (field [ 0; 3 ])
    | 5 ->
        map (fun v -> { m with Of_match.dl_type = v })
          (field [ Ethernet.ethertype_ipv4; Ethernet.ethertype_arp ])
    | 6 -> map (fun v -> { m with Of_match.nw_tos = v }) (field [ 0; 4 ])
    | 7 -> map (fun v -> { m with Of_match.nw_proto = v }) (field [ 6; 17 ])
    | 8 -> map (fun v -> { m with Of_match.nw_src = v }) prefix
    | 9 -> map (fun v -> { m with Of_match.nw_dst = v }) prefix
    | 10 -> map (fun v -> { m with Of_match.tp_src = v }) (field [ 1; 9 ])
    | _ -> map (fun v -> { m with Of_match.tp_dst = v }) (field [ 1; 9 ])
  in
  let match_gen =
    List.fold_left
      (fun acc i -> acc >>= fun m -> set m i)
      (return Of_match.wildcard_all)
      (List.init 12 Fun.id)
  in
  let pair_gen =
    let* a = match_gen in
    let* i = int_range 0 12 in
    let+ b = if i = 12 then return a else set a i in
    (a, b)
  in
  let roundtrip m =
    let buf = Bytes.make Of_match.size '\000' in
    Of_match.write m buf 0;
    Of_match.read buf 0
  in
  let print (a, b) = Format.asprintf "%a\n%a" Of_match.pp a Of_match.pp b in
  QCheck.Test.make ~name:"hash agrees with equal" ~count:500
    (QCheck.make ~print pair_gen) (fun (a, b) ->
      (not (Of_match.equal a b) || Of_match.hash a = Of_match.hash b)
      &&
      match roundtrip a with
      | Ok a' -> Of_match.equal a a' && Of_match.hash a = Of_match.hash a'
      | Error _ -> false)

(* [matches] before it compared field by field: the packet as its
   exact match, then field-wise agreement. Kept as the reference. *)
let reference_matches (t : Of_match.t) ~in_port pkt =
  let pkt_as_match = Of_match.exact_of_packet ~in_port pkt in
  let opt_eq eq a b =
    match (a, b) with
    | None, _ -> true
    | Some expected, Some actual -> eq expected actual
    | Some _, None -> false
  in
  let ip_field a b =
    match (a, b) with
    | None, _ -> true
    | Some (prefix, bits), Some (addr, _) -> Ip.matches_prefix ~prefix ~bits addr
    | Some _, None -> false
  in
  opt_eq ( = ) t.Of_match.in_port pkt_as_match.Of_match.in_port
  && opt_eq Mac.equal t.Of_match.dl_src pkt_as_match.Of_match.dl_src
  && opt_eq Mac.equal t.Of_match.dl_dst pkt_as_match.Of_match.dl_dst
  && opt_eq ( = ) t.Of_match.dl_vlan pkt_as_match.Of_match.dl_vlan
  && opt_eq ( = ) t.Of_match.dl_vlan_pcp pkt_as_match.Of_match.dl_vlan_pcp
  && opt_eq ( = ) t.Of_match.dl_type pkt_as_match.Of_match.dl_type
  && opt_eq ( = ) t.Of_match.nw_tos pkt_as_match.Of_match.nw_tos
  && opt_eq ( = ) t.Of_match.nw_proto pkt_as_match.Of_match.nw_proto
  && ip_field t.Of_match.nw_src pkt_as_match.Of_match.nw_src
  && ip_field t.Of_match.nw_dst pkt_as_match.Of_match.nw_dst
  && opt_eq ( = ) t.Of_match.tp_src pkt_as_match.Of_match.tp_src
  && opt_eq ( = ) t.Of_match.tp_dst pkt_as_match.Of_match.tp_dst

(* Random matches against UDP, TCP, ARP and raw packets: each field of
   the match is a wildcard, the packet's own value or another packet's
   (prefixes cut to 0–32 bits), so matches and misses both occur on
   every field. *)
let prop_matches_agrees_with_reference =
  let open QCheck.Gen in
  let gen =
    Test_packet.gen_packet >>= fun pkt ->
    Test_packet.gen_packet >>= fun other ->
    int_range 1 2 >>= fun in_port ->
    int_range 1 2 >>= fun other_port ->
    let own = Of_match.exact_of_packet ~in_port pkt
    and alt = Of_match.exact_of_packet ~in_port:other_port other in
    let pick f = oneofl [ None; f own; f alt ] in
    let prefix f =
      pick f >>= function
      | None -> return None
      | Some (ip, _) -> map (fun bits -> Some (ip, bits)) (int_range 0 32)
    in
    let vlan = frequency [ (4, return None); (1, return (Some 0)) ] in
    map
      (fun ((match_port, dl_src, dl_dst, dl_vlan), (dl_vlan_pcp, dl_type, nw_tos, nw_proto), (nw_src, nw_dst, tp_src, tp_dst)) ->
        ( pkt,
          in_port,
          { Of_match.in_port = match_port; dl_src; dl_dst; dl_vlan; dl_vlan_pcp; dl_type;
            nw_tos; nw_proto; nw_src; nw_dst; tp_src; tp_dst } ))
      (triple
         (quad (pick (fun m -> m.Of_match.in_port)) (pick (fun m -> m.Of_match.dl_src))
            (pick (fun m -> m.Of_match.dl_dst)) vlan)
         (quad vlan (pick (fun m -> m.Of_match.dl_type))
            (pick (fun m -> m.Of_match.nw_tos)) (pick (fun m -> m.Of_match.nw_proto)))
         (quad
            (prefix (fun m -> m.Of_match.nw_src))
            (prefix (fun m -> m.Of_match.nw_dst))
            (pick (fun m -> m.Of_match.tp_src)) (pick (fun m -> m.Of_match.tp_dst))))
  in
  QCheck.Test.make ~name:"matches agrees with the exact-match reference"
    ~count:2000 (QCheck.make gen) (fun (pkt, in_port, m) ->
      Of_match.matches m ~in_port pkt = reference_matches m ~in_port pkt)

let suite =
  [
    Alcotest.test_case "wildcard matches everything" `Quick
      test_wildcard_all_matches_everything;
    Alcotest.test_case "exact match" `Quick test_exact_match_self;
    Alcotest.test_case "5-tuple match" `Quick test_flow_key_match;
    Alcotest.test_case "prefix wildcard" `Quick test_prefix_wildcard;
    Alcotest.test_case "wire roundtrip (exact)" `Quick test_wire_roundtrip_exact;
    Alcotest.test_case "wire roundtrip (wildcards)" `Quick
      test_wire_roundtrip_wildcards;
    Alcotest.test_case "wire roundtrip (all-wildcard)" `Quick
      test_wire_roundtrip_all_wildcard;
    Alcotest.test_case "subsumption" `Quick test_subsumption;
    Alcotest.test_case "prefix subsumption" `Quick test_prefix_subsumption;
    QCheck_alcotest.to_alcotest prop_match_roundtrip;
    QCheck_alcotest.to_alcotest prop_exact_always_matches_source;
    QCheck_alcotest.to_alcotest prop_hash_agrees_with_equal;
    QCheck_alcotest.to_alcotest prop_matches_agrees_with_reference;
  ]
