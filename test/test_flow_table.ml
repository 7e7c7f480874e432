(* Tests for the flow table: priority lookup, replacement, deletion,
   timeouts, eviction, counters. *)

open Sdn_net
open Sdn_openflow
open Sdn_switch

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip2 = Ip.make 10 0 0 2

let udp_pkt ~src_port =
  Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(Ip.make 10 0 0 1) ~dst_ip:ip2
    ~src_port ~dst_port:9 ~payload:(Bytes.of_string "x") ()

let entry_for ?(priority = 1) ?(idle = 0) ?(hard = 0) ~out_port pkt ~now =
  let match_ = Of_match.of_flow_key (Option.get (Packet.flow_key pkt)) in
  Flow_entry.of_flow_mod
    (Of_flow_mod.add ~priority ~idle_timeout:idle ~hard_timeout:hard ~match_
       ~actions:[ Of_action.output out_port ] ())
    ~now

let wildcard_entry ?(priority = 0) ~out_port ~now () =
  Flow_entry.of_flow_mod
    (Of_flow_mod.add ~priority ~match_:Of_match.wildcard_all
       ~actions:[ Of_action.output out_port ] ())
    ~now

let out_port_of entry =
  match entry.Flow_entry.actions with
  | [ Of_action.Output { port; _ } ] -> port
  | _ -> -1

let test_miss_on_empty () =
  let table = Flow_table.create ~capacity:10 () in
  Alcotest.(check bool) "miss" true
    (Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:1) = None);
  Alcotest.(check int) "lookups" 1 (Flow_table.lookups table);
  Alcotest.(check int) "misses" 1 (Flow_table.misses table)

let test_insert_and_hit () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "right entry" 2 (out_port_of e)
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "other flow misses" true
    (Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:2) = None)

let test_priority_wins () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (wildcard_entry ~priority:0 ~out_port:9 ~now:0.0 ()));
  ignore (Flow_table.insert table (entry_for ~priority:5 ~out_port:2 pkt ~now:0.0));
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "high priority" 2 (out_port_of e)
  | None -> Alcotest.fail "expected hit");
  (* A different flow falls through to the wildcard. *)
  match Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:7) with
  | Some e -> Alcotest.(check int) "wildcard" 9 (out_port_of e)
  | None -> Alcotest.fail "expected wildcard hit"

let test_replace_same_match_priority () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  let result = Flow_table.insert table (entry_for ~out_port:3 pkt ~now:1.0) in
  Alcotest.(check bool) "replaced" true (result = Flow_table.Replaced);
  Alcotest.(check int) "length" 1 (Flow_table.length table);
  match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "new actions" 3 (out_port_of e)
  | None -> Alcotest.fail "expected hit"

let test_capacity_eviction () =
  let table = Flow_table.create ~capacity:3 () in
  for p = 1 to 3 do
    ignore (Flow_table.insert table (entry_for ~out_port:2 (udp_pkt ~src_port:p) ~now:(float_of_int p)))
  done;
  (* Touch flows 2 and 3 so flow 1 is LRU. *)
  List.iter
    (fun p ->
      match Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:p) with
      | Some e -> Flow_entry.touch e ~now:10.0 ~bytes:100
      | None -> Alcotest.fail "expected hit")
    [ 2; 3 ];
  let result = Flow_table.insert table (entry_for ~out_port:2 (udp_pkt ~src_port:4) ~now:11.0) in
  (match result with
  | Flow_table.Evicted victim ->
      (* The evicted entry is the untouched one (flow 1). *)
      Alcotest.(check bool) "victim is LRU" true
        (Of_match.matches victim.Flow_entry.match_ ~in_port:1 (udp_pkt ~src_port:1))
  | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check int) "length stays at capacity" 3 (Flow_table.length table);
  Alcotest.(check int) "eviction counted" 1 (Flow_table.evictions table);
  Alcotest.(check bool) "evicted flow now misses" true
    (Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:1) = None)

let test_idle_timeout_expiry () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~idle:5 ~out_port:2 pkt ~now:0.0));
  Alcotest.(check int) "not expired yet" 0
    (List.length (Flow_table.expire table ~now:4.9));
  (* A touch at 4 pushes idle expiry to 9. *)
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Flow_entry.touch e ~now:4.0 ~bytes:100
  | None -> Alcotest.fail "hit expected");
  Alcotest.(check int) "still alive at 8" 0
    (List.length (Flow_table.expire table ~now:8.0));
  Alcotest.(check int) "expires at 9" 1
    (List.length (Flow_table.expire table ~now:9.0));
  Alcotest.(check int) "expirations counter" 1 (Flow_table.expirations table);
  Alcotest.(check bool) "gone" true (Flow_table.lookup table ~in_port:1 pkt = None)

let test_hard_timeout_expiry () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~hard:3 ~out_port:2 pkt ~now:0.0));
  (* Touching does not save a hard-timed-out rule. *)
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Flow_entry.touch e ~now:2.9 ~bytes:100
  | None -> Alcotest.fail "hit expected");
  Alcotest.(check int) "hard expiry" 1 (List.length (Flow_table.expire table ~now:3.0))

let test_delete_strict_and_loose () =
  let table = Flow_table.create ~capacity:10 () in
  let p1 = udp_pkt ~src_port:1 and p2 = udp_pkt ~src_port:2 in
  ignore (Flow_table.insert table (entry_for ~priority:1 ~out_port:2 p1 ~now:0.0));
  ignore (Flow_table.insert table (entry_for ~priority:2 ~out_port:2 p2 ~now:0.0));
  (* Strict delete with wrong priority removes nothing. *)
  let m1 = Of_match.of_flow_key (Option.get (Packet.flow_key p1)) in
  Alcotest.(check int) "strict wrong priority" 0
    (Flow_table.delete table ~strict:true ~match_:m1 ~priority:9 ());
  Alcotest.(check int) "strict right priority" 1
    (Flow_table.delete table ~strict:true ~match_:m1 ~priority:1 ());
  (* Loose delete with a wildcard removes the rest. *)
  Alcotest.(check int) "loose wildcard" 1
    (Flow_table.delete table ~strict:false ~match_:Of_match.wildcard_all ~priority:0 ());
  Alcotest.(check int) "empty" 0 (Flow_table.length table)

let test_stats_counters () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e ->
      Flow_entry.touch e ~now:1.0 ~bytes:1000;
      Flow_entry.touch e ~now:2.0 ~bytes:1000
  | None -> Alcotest.fail "hit");
  match Flow_table.to_stats table ~now:3.0 with
  | [ stats ] ->
      Alcotest.(check int64) "packets" 2L stats.Of_stats.packet_count;
      Alcotest.(check int64) "bytes" 2000L stats.Of_stats.byte_count;
      Alcotest.(check int32) "duration" 3l stats.Of_stats.duration_sec
  | _ -> Alcotest.fail "expected one stats entry"

(* ---- Microflow fast path ---- *)

let test_microflow_counters () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  for _ = 1 to 5 do
    ignore (Flow_table.lookup table ~in_port:1 pkt)
  done;
  Alcotest.(check int) "one cold miss" 1 (Flow_table.microflow_misses table);
  Alcotest.(check int) "rest served from cache" 4
    (Flow_table.microflow_hits table);
  Alcotest.(check int) "one cached entry" 1 (Flow_table.microflow_length table)

let test_microflow_invalidated_by_mutations () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  ignore (Flow_table.lookup table ~in_port:1 pkt);
  ignore (Flow_table.lookup table ~in_port:1 pkt);
  Alcotest.(check int) "warm" 1 (Flow_table.microflow_hits table);
  (* Replacing the rule must flush the cache and serve the new actions. *)
  ignore (Flow_table.insert table (entry_for ~out_port:7 pkt ~now:1.0));
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "new actions after insert" 7 (out_port_of e)
  | None -> Alcotest.fail "expected hit");
  (* Deleting it must flush again: a stale hit would forward into a
     void. *)
  let m = Of_match.of_flow_key (Option.get (Packet.flow_key pkt)) in
  ignore (Flow_table.delete table ~strict:false ~match_:m ~priority:0 ());
  Alcotest.(check bool) "miss after delete" true
    (Flow_table.lookup table ~in_port:1 pkt = None);
  Alcotest.(check bool) "flushes counted" true
    (Flow_table.microflow_flushes table >= 2)

let test_microflow_expiry_invalidates () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~hard:3 ~out_port:2 pkt ~now:0.0));
  ignore (Flow_table.lookup table ~in_port:1 pkt);
  ignore (Flow_table.lookup table ~in_port:1 pkt);
  ignore (Flow_table.expire table ~now:3.0);
  Alcotest.(check bool) "miss after expiry" true
    (Flow_table.lookup table ~in_port:1 pkt = None)

let test_microflow_negative_cache_invalidated () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  (* Cache a negative result, then install a matching rule: the flush
     on insert must clear the cached miss. *)
  Alcotest.(check bool) "cold miss" true
    (Flow_table.lookup table ~in_port:1 pkt = None);
  Alcotest.(check bool) "cached miss" true
    (Flow_table.lookup table ~in_port:1 pkt = None);
  Alcotest.(check int) "negative result cached" 1
    (Flow_table.microflow_hits table);
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "rule found after install" 2 (out_port_of e)
  | None -> Alcotest.fail "stale negative cache entry"

let test_microflow_keyed_on_in_port () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  (* A rule that pins the ingress port: the same frame on another port
     must not reuse the cached result. *)
  let key_match = Of_match.of_flow_key (Option.get (Packet.flow_key pkt)) in
  let match_ = { key_match with Of_match.in_port = Some 1 } in
  ignore
    (Flow_table.insert table
       (Flow_entry.of_flow_mod
          (Of_flow_mod.add ~priority:1 ~match_
             ~actions:[ Of_action.output 2 ] ())
          ~now:0.0));
  Alcotest.(check bool) "hits on port 1" true
    (Flow_table.lookup table ~in_port:1 pkt <> None);
  Alcotest.(check bool) "misses on port 3" true
    (Flow_table.lookup table ~in_port:3 pkt = None)

let test_microflow_audit_clean () =
  let check = Sdn_check.Check.create () in
  let table = Flow_table.create ~check ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  for _ = 1 to 10 do
    ignore (Flow_table.lookup table ~in_port:1 pkt)
  done;
  Alcotest.(check int) "hits audited clean" 0
    (Sdn_check.Check.violation_count check);
  Alcotest.(check bool) "audits recorded" true
    (Sdn_check.Check.events_seen check > 0)

(* The fast path must be semantically invisible: through a randomized
   trace of inserts, deletes, expiries and lookups, every cached lookup
   answers with the very entry the slow path picks. *)
let prop_microflow_equivalence =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun p -> `Lookup p) (int_range 1 40));
          (3, map2 (fun p prio -> `Insert (p, prio)) (int_range 1 40)
                (int_range 1 3));
          (1, map (fun p -> `Delete p) (int_range 1 40));
          (1, map (fun t -> `Expire t) (float_bound_exclusive 100.0));
        ])
  in
  QCheck.Test.make ~name:"microflow-cached table behaves like uncached"
    ~count:120
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
       Gen.(list_size (int_range 1 120) op_gen))
    (fun ops ->
      let table = Flow_table.create ~capacity:16 () in
      let now = ref 0.0 in
      List.for_all
        (fun op ->
          now := !now +. 0.5;
          match op with
          | `Insert (p, prio) ->
              let entry () =
                entry_for ~priority:prio ~idle:30 ~out_port:p
                  (udp_pkt ~src_port:p) ~now:!now
              in
              ignore (Flow_table.insert table (entry ()));
              true
          | `Delete p ->
              let m =
                Of_match.of_flow_key
                  (Option.get (Packet.flow_key (udp_pkt ~src_port:p)))
              in
              ignore
                (Flow_table.delete table ~strict:false ~match_:m ~priority:0 ());
              true
          | `Expire t ->
              ignore (Flow_table.expire table ~now:t);
              true
          | `Lookup p -> (
              let pkt = udp_pkt ~src_port:p in
              match
                ( Flow_table.lookup table ~in_port:1 pkt,
                  Flow_table.lookup_uncached table ~in_port:1 pkt )
              with
              | None, None -> true
              | Some cached, Some slow -> cached == slow
              | Some _, None | None, Some _ -> false))
        ops)

let prop_inserted_flow_is_found =
  QCheck.Test.make ~name:"every inserted 5-tuple rule is found" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_range 1 60000))
    (fun ports ->
      let ports = List.sort_uniq compare ports in
      let table = Flow_table.create ~capacity:100 () in
      List.iter
        (fun p -> ignore (Flow_table.insert table (entry_for ~out_port:2 (udp_pkt ~src_port:p) ~now:0.0)))
        ports;
      List.for_all
        (fun p -> Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:p) <> None)
        ports)

(* ---- Reference model: identical-entry search, delete, expiry ----

   A plain install-ordered list re-implements the table by brute force:
   [insert] replaces the entry with equal (priority, match), otherwise
   installs, or evicts the least-recently-used entry of minimal
   priority (uid breaks ties); deletes and expiry filter the list. The
   generated matches put several distinct rules into one exact-index
   bucket (a 5-tuple pinned further by in_port or MACs) beside
   wildcarded ones, so a search that looks in the wrong place, or stops
   at the first entry of the right bucket, diverges from the model.
   Both sides hold the same physical entries, compared with [==]. *)

type model = {
  m_capacity : int;
  mutable m_next_uid : int;
  mutable m_rules : (int * Flow_entry.t) list;  (* install order *)
}

let model_identical ~match_ ~priority (_, (e : Flow_entry.t)) =
  e.Flow_entry.priority = priority && Of_match.equal e.Flow_entry.match_ match_

let model_outputs_to out_port (_, (e : Flow_entry.t)) =
  out_port = Of_wire.Port.none
  || List.exists
       (function
         | Of_action.Output { port; _ } -> port = out_port
         | _ -> false)
       e.Flow_entry.actions

let model_remove m keep = m.m_rules <- List.filter keep m.m_rules

let model_insert m (e : Flow_entry.t) =
  let add () =
    m.m_rules <- m.m_rules @ [ (m.m_next_uid, e) ];
    m.m_next_uid <- m.m_next_uid + 1
  in
  let identical =
    model_identical ~match_:e.Flow_entry.match_ ~priority:e.Flow_entry.priority
  in
  if List.exists identical m.m_rules then begin
    model_remove m (fun r -> not (identical r));
    add ();
    Flow_table.Replaced
  end
  else if List.length m.m_rules < m.m_capacity then begin
    add ();
    Flow_table.Installed
  end
  else begin
    let older (ua, (a : Flow_entry.t)) (ub, (b : Flow_entry.t)) =
      a.Flow_entry.priority < b.Flow_entry.priority
      || a.Flow_entry.priority = b.Flow_entry.priority
         && (Flow_entry.last_used a < Flow_entry.last_used b
            || (Float.equal (Flow_entry.last_used a) (Flow_entry.last_used b)
               && ua < ub))
    in
    match m.m_rules with
    | [] ->
        (* Unreachable: the capacity is at least 1. *)
        add ();
        Flow_table.Installed
    | first :: rest ->
        let victim_uid, victim =
          List.fold_left (fun best r -> if older r best then r else best)
            first rest
        in
        model_remove m (fun (uid, _) -> uid <> victim_uid);
        add ();
        Flow_table.Evicted victim
  end

let model_delete m ~strict ~out_port ~match_ ~priority =
  let doomed (r : int * Flow_entry.t) =
    (if strict then model_identical ~match_ ~priority r
     else Of_match.subsumes ~general:match_ ~specific:(snd r).Flow_entry.match_)
    && model_outputs_to out_port r
  in
  let n = List.length (List.filter doomed m.m_rules) in
  model_remove m (fun r -> not (doomed r));
  n

let model_expire m ~now =
  let expired, live =
    List.partition (fun (_, e) -> Flow_entry.is_expired e ~now) m.m_rules
  in
  m.m_rules <- live;
  List.map snd expired

let model_key port =
  Flow_key.make ~proto:17 ~src_ip:(Ip.make 10 0 0 1) ~dst_ip:ip2
    ~src_port:port ~dst_port:9

let model_match_gen =
  QCheck.Gen.(
    let five_tuple = map (fun p -> Of_match.of_flow_key (model_key p)) (int_range 1 3) in
    oneof
      [
        five_tuple;
        (* Same exact-index bucket as the bare 5-tuple, different match. *)
        map2
          (fun m port -> { m with Of_match.in_port = Some port })
          five_tuple (int_range 1 2);
        map2
          (fun m mac -> { m with Of_match.dl_src = Some mac })
          five_tuple (oneofl [ mac1; mac2 ]);
        (* Wildcarded: no index key. *)
        return Of_match.wildcard_all;
        map
          (fun port -> { Of_match.wildcard_all with Of_match.in_port = Some port })
          (int_range 1 2);
        map
          (fun m -> { m with Of_match.nw_src = Some (Ip.make 10 0 0 0, 24) })
          five_tuple;
      ])

type model_op =
  | Ins of Of_match.t * int * int * int * int  (* match, prio, port, idle, hard *)
  | Del_strict of Of_match.t * int * int  (* match, prio, out_port *)
  | Del of Of_match.t * int  (* match, out_port *)
  | Expire
  | Touch of int

let pp_model_op = function
  | Ins (m, prio, port, idle, hard) ->
      Format.asprintf "insert %a prio=%d out=%d idle=%d hard=%d" Of_match.pp m
        prio port idle hard
  | Del_strict (m, prio, out) ->
      Format.asprintf "delete-strict %a prio=%d out_port=%d" Of_match.pp m prio out
  | Del (m, out) -> Format.asprintf "delete %a out_port=%d" Of_match.pp m out
  | Expire -> "expire"
  | Touch i -> Printf.sprintf "touch #%d" i

let prop_model_equivalence =
  let prio = QCheck.Gen.int_range 0 2 in
  let out_filter = QCheck.Gen.oneofl [ Of_wire.Port.none; 1; 2 ] in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            let* m = model_match_gen in
            let* p = prio in
            let* port = int_range 1 2 in
            let* idle = int_range 0 3 in
            let+ hard = int_range 0 4 in
            Ins (m, p, port, idle, hard) );
          (2, map3 (fun m p o -> Del_strict (m, p, o)) model_match_gen prio out_filter);
          (1, map2 (fun m o -> Del (m, o)) model_match_gen out_filter);
          (1, return Expire);
          (1, map (fun i -> Touch i) (int_range 0 7));
        ])
  in
  let case_gen =
    QCheck.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 1 60) (pair op_gen (oneofl [ 0.0; 0.5; 1.0 ]))))
  in
  let print (capacity, ops) =
    Printf.sprintf "capacity=%d\n%s" capacity
      (String.concat "\n"
         (List.map (fun (op, dt) -> Printf.sprintf "+%.1f %s" dt (pp_model_op op)) ops))
  in
  QCheck.Test.make ~name:"flow table agrees with a list model" ~count:300
    (QCheck.make ~print case_gen)
    (fun (capacity, ops) ->
      let table = Flow_table.create ~capacity () in
      let m = { m_capacity = capacity; m_next_uid = 0; m_rules = [] } in
      let now = ref 0.0 in
      let same_entries a b = List.equal ( == ) a b in
      List.for_all
        (fun (op, dt) ->
          now := !now +. dt;
          let agree =
            match op with
            | Ins (match_, priority, port, idle, hard) -> (
                let e =
                  Flow_entry.of_flow_mod
                    (Of_flow_mod.add ~priority ~idle_timeout:idle
                       ~hard_timeout:hard ~match_
                       ~actions:[ Of_action.output port ] ())
                    ~now:!now
                in
                match (Flow_table.insert table e, model_insert m e) with
                | Flow_table.Evicted a, Flow_table.Evicted b -> a == b
                | a, b -> a = b)
            | Del_strict (match_, priority, out_port) ->
                Flow_table.delete table ~strict:true ~out_port ~match_ ~priority ()
                = model_delete m ~strict:true ~out_port ~match_ ~priority
            | Del (match_, out_port) ->
                Flow_table.delete table ~strict:false ~out_port ~match_
                  ~priority:0 ()
                = model_delete m ~strict:false ~out_port ~match_ ~priority:0
            | Expire ->
                same_entries
                  (Flow_table.expire table ~now:!now)
                  (model_expire m ~now:!now)
            | Touch i -> (
                match List.nth_opt m.m_rules i with
                | Some (_, e) ->
                    Flow_entry.touch e ~now:!now ~bytes:64;
                    true
                | None -> true)
          in
          agree
          && Flow_table.length table = List.length m.m_rules
          && same_entries (Flow_table.entries table) (List.map snd m.m_rules))
        ops)

(* ---- Parse once: keys read from the frame ----

   [Microflow.load_frame] reads a validated frame in place, and
   [load_packet] the packet [Packet.build] makes of it: both must
   accept the same frames (IPv4 UDP or TCP) and load the same words. A
   second packet, the first with one key field redrawn, must meet the
   first's key exactly when the fields the key covers are equal, so
   every bit the key packs counts. *)
let projection ~in_port (pkt : Packet.t) =
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, Packet.Udp ({ Udp.src_port; dst_port }, _))
  | Packet.Ipv4 (ip, Packet.Tcp ({ Tcp.src_port; dst_port; _ }, _)) ->
      let eth = pkt.Packet.eth in
      Some
        ( (in_port, eth.Ethernet.src, eth.Ethernet.dst, ip.Ipv4.tos),
          (ip.Ipv4.proto, ip.Ipv4.src, ip.Ipv4.dst, src_port, dst_port) )
  | Packet.Ipv4 (_, Packet.Raw_l4 _) | Packet.Arp _ | Packet.Raw_l3 _ -> None

let gen_port = QCheck.Gen.oneofl [ 0; 1; 2; 0x0101; 0xFF00; 0xFFFF ]

(* The same packet with UDP and TCP swapped, ports kept. *)
let swap_proto (pkt : Packet.t) =
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, Packet.Udp ({ Udp.src_port; dst_port }, p)) ->
      let tcp = { Tcp.src_port; dst_port; seq = 0l; ack_seq = 0l; flags = Tcp.no_flags; window = 1 } in
      { pkt with Packet.l3 = Packet.Ipv4 ({ ip with Ipv4.proto = 6 }, Packet.Tcp (tcp, p)) }
  | Packet.Ipv4 (ip, Packet.Tcp ({ Tcp.src_port; dst_port; _ }, p)) ->
      { pkt with Packet.l3 = Packet.Ipv4 ({ ip with Ipv4.proto = 17 }, Packet.Udp ({ Udp.src_port; dst_port }, p)) }
  | Packet.Ipv4 (_, Packet.Raw_l4 _) | Packet.Arp _ | Packet.Raw_l3 _ -> pkt

let redraw_one_field (in_port, pkt) =
  let open QCheck.Gen in
  let rewritten action = map (fun v -> (in_port, Of_action.rewrite [ action v ] pkt)) in
  int_range 0 8 >>= function
  | 0 -> map (fun p -> (p, pkt)) gen_port
  | 1 -> rewritten (fun m -> Of_action.Set_dl_src m) Test_packet.gen_mac
  | 2 -> rewritten (fun m -> Of_action.Set_dl_dst m) Test_packet.gen_mac
  | 3 -> rewritten (fun v -> Of_action.Set_nw_tos v) Test_packet.gen_tos
  | 4 -> rewritten (fun ip -> Of_action.Set_nw_src ip) Test_packet.gen_ip
  | 5 -> rewritten (fun ip -> Of_action.Set_nw_dst ip) Test_packet.gen_ip
  | 6 -> rewritten (fun p -> Of_action.Set_tp_src p) Test_packet.gen_l4_port
  | 7 -> rewritten (fun p -> Of_action.Set_tp_dst p) Test_packet.gen_l4_port
  | _ -> return (in_port, swap_proto pkt)

(* The cache is an [Int_table] on the key's words, so two keys name the
   same cache entry exactly when their words are equal. *)
let same_key (a : Microflow.key) b = Array.for_all2 Int.equal a b

let prop_frame_key_agrees =
  QCheck.Test.make ~name:"frame and packet microflow keys agree" ~count:1500
    (QCheck.make
       QCheck.Gen.(
         pair gen_port Test_packet.gen_packet >>= fun a ->
         map (fun b -> (a, b)) (redraw_one_field a)))
    (fun ((port_a, a), (port_b, b)) ->
      let frame = Packet.encode a in
      let from_frame = Microflow.key () and from_packet = Microflow.key () in
      let cacheable = Microflow.load_frame from_frame ~in_port:port_a frame in
      cacheable
      = Microflow.load_packet from_packet ~in_port:port_a (Packet.build frame)
      && cacheable = Option.is_some (projection ~in_port:port_a a)
      && ((not cacheable)
         || same_key from_frame from_packet
            &&
            let other = Microflow.key () in
            (not (Microflow.load_packet other ~in_port:port_b b))
            || same_key from_frame other
               = (projection ~in_port:port_a a = projection ~in_port:port_b b)))

(* [lookup_frame] answers from the same cache as [lookup]: on one table
   holding exact and wildcarded rules, a frame lookup and a packet
   lookup of the same traffic return the entry the slow path picks,
   whichever of the two filled the cache. *)
let prop_lookup_frame_agrees =
  let rule (priority, (in_port, pkt), wild) =
    let m = Of_match.exact_of_packet ~in_port pkt in
    let match_ =
      match wild with
      | 0 -> m
      | 1 -> { m with Of_match.in_port = None; dl_src = None }
      | _ -> { Of_match.wildcard_all with Of_match.dl_type = m.Of_match.dl_type }
    in
    Flow_entry.of_flow_mod
      (Of_flow_mod.add ~priority ~match_ ~actions:[ Of_action.output 2 ] ())
      ~now:0.0
  in
  let traffic = QCheck.Gen.pair gen_port Test_packet.gen_packet in
  QCheck.Test.make ~name:"lookup_frame agrees with lookup" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 0 8)
              (triple (int_range 0 3) traffic (int_range 0 2)))
           (list_size (int_range 1 30) (pair bool traffic))))
    (fun (rules, lookups) ->
      let table = Flow_table.create ~capacity:64 () in
      List.iter (fun r -> ignore (Flow_table.insert table (rule r))) rules;
      List.for_all
        (fun (by_frame, (in_port, pkt)) ->
          let frame = Packet.encode pkt in
          let first, second =
            if by_frame then
              let f = Flow_table.lookup_frame table ~in_port frame in
              (f, Flow_table.lookup table ~in_port pkt)
            else
              let p = Flow_table.lookup table ~in_port pkt in
              (p, Flow_table.lookup_frame table ~in_port frame)
          in
          let slow = Flow_table.lookup_uncached table ~in_port pkt in
          Option.equal ( == ) first slow && Option.equal ( == ) second slow)
        lookups
      && Flow_table.lookups table = 2 * List.length lookups)

(* ---- The frame-keyed slow path against the reference ----

   On a cache miss [lookup_frame] matches the candidate rules against
   the key's words, walking the exact bucket oldest first and then the
   wildcard rules newest first; [lookup_uncached] on [Packet.build] of
   the frame is the reference. Rules come from a small pool of packets,
   so several share an exact bucket at equal priority: the whole exact
   match, the bare 5-tuple, the 5-tuple narrowed by in_port. Wildcard
   rules keep or drop each of in_port, the MACs and the ToS, and cut
   both addresses to prefixes of 0-32 bits. Lookups reuse the pool's
   UDP, TCP, ARP and raw packets, some with another ToS, and every
   lookup runs twice, so the second is answered from the cache. *)

type slow_op =
  | S_insert of Of_match.t * int * int * int  (* match, priority, idle, hard *)
  | S_delete of Of_match.t * int * bool  (* match, priority, strict *)
  | S_expire
  | S_lookup of int * Packet.t

let pp_slow_op = function
  | S_insert (m, prio, idle, hard) ->
      Format.asprintf "insert %a prio=%d idle=%d hard=%d" Of_match.pp m prio
        idle hard
  | S_delete (m, prio, strict) ->
      Format.asprintf "delete%s %a prio=%d"
        (if strict then "-strict" else "")
        Of_match.pp m prio
  | S_expire -> "expire"
  | S_lookup (in_port, pkt) ->
      Format.asprintf "lookup in_port=%d %a" in_port Of_match.pp
        (Of_match.exact_of_packet pkt)

let gen_slow_match (in_port, pkt) =
  let open QCheck.Gen in
  let m = Of_match.exact_of_packet ~in_port pkt in
  let tuple =
    {
      Of_match.wildcard_all with
      Of_match.dl_type = m.Of_match.dl_type;
      nw_proto = m.Of_match.nw_proto;
      nw_src = m.Of_match.nw_src;
      nw_dst = m.Of_match.nw_dst;
      tp_src = m.Of_match.tp_src;
      tp_dst = m.Of_match.tp_dst;
    }
  in
  let keep v = oneofl [ None; v ] in
  let prefix = function
    | None -> return None
    | Some (ip, _) ->
        oneof [ return None; map (fun bits -> Some (ip, bits)) (int_range 0 32) ]
  in
  frequency
    [
      (2, return m);
      (2, return tuple);
      (1, map (fun p -> { tuple with Of_match.in_port = Some p }) (int_range 1 2));
      ( 3,
        let* in_port = keep m.Of_match.in_port in
        let* dl_src = keep m.Of_match.dl_src in
        let* dl_dst = keep m.Of_match.dl_dst in
        let* nw_tos = keep m.Of_match.nw_tos in
        let* dl_type = keep m.Of_match.dl_type in
        let* nw_src = prefix m.Of_match.nw_src in
        let+ nw_dst = prefix m.Of_match.nw_dst in
        { m with Of_match.in_port; dl_src; dl_dst; nw_tos; dl_type; nw_src; nw_dst;
                 nw_proto = None; tp_src = None; tp_dst = None } );
    ]

let gen_slow_case =
  let open QCheck.Gen in
  let* pool = array_size (int_range 1 4) Test_packet.gen_packet in
  let traffic =
    let* pkt = oneofl (Array.to_list pool) in
    let* in_port = int_range 1 2 in
    let+ tos = option ~ratio:0.2 Test_packet.gen_tos in
    match tos with
    | None -> (in_port, pkt)
    | Some v -> (in_port, Of_action.rewrite [ Of_action.Set_nw_tos v ] pkt)
  in
  let prio = int_range 0 2 in
  list_size (int_range 1 40)
    (frequency
       [
         ( 5,
           let* m = traffic >>= gen_slow_match in
           let* p = prio in
           let* idle = int_range 0 3 in
           let+ hard = int_range 0 4 in
           S_insert (m, p, idle, hard) );
         (1, map2 (fun m p -> S_delete (m, p, true)) (traffic >>= gen_slow_match) prio);
         (1, map (fun m -> S_delete (m, 0, false)) (traffic >>= gen_slow_match));
         (1, return S_expire);
         (6, map (fun (in_port, pkt) -> S_lookup (in_port, pkt)) traffic);
       ])

let prop_slow_path_agrees =
  let print ops = String.concat "\n" (List.map pp_slow_op ops) in
  QCheck.Test.make ~name:"frame-keyed slow path agrees with the reference"
    ~count:400 (QCheck.make ~print gen_slow_case) (fun ops ->
      let table = Flow_table.create ~capacity:12 () in
      let now = ref 0.0 in
      List.for_all
        (fun op ->
          now := !now +. 0.5;
          match op with
          | S_insert (match_, priority, idle, hard) ->
              ignore
                (Flow_table.insert table
                   (Flow_entry.of_flow_mod
                      (Of_flow_mod.add ~priority ~idle_timeout:idle
                         ~hard_timeout:hard ~match_
                         ~actions:[ Of_action.output 2 ] ())
                      ~now:!now));
              true
          | S_delete (match_, priority, strict) ->
              ignore (Flow_table.delete table ~strict ~match_ ~priority ());
              true
          | S_expire ->
              ignore (Flow_table.expire table ~now:!now);
              true
          | S_lookup (in_port, pkt) -> (
              let frame = Packet.encode pkt in
              match Packet.validate frame with
              | Error _ -> true
              | Ok () ->
                  let reference =
                    Flow_table.lookup_uncached table ~in_port (Packet.build frame)
                  in
                  let cold = Flow_table.lookup_frame table ~in_port frame in
                  let warm = Flow_table.lookup_frame table ~in_port frame in
                  Option.equal ( == ) cold reference
                  && Option.equal ( == ) warm reference))
        ops)

let suite =
  [
    Alcotest.test_case "miss on empty table" `Quick test_miss_on_empty;
    Alcotest.test_case "insert and hit" `Quick test_insert_and_hit;
    Alcotest.test_case "priority wins" `Quick test_priority_wins;
    Alcotest.test_case "replace on equal match+priority" `Quick
      test_replace_same_match_priority;
    Alcotest.test_case "LRU eviction at capacity" `Quick test_capacity_eviction;
    Alcotest.test_case "idle timeout" `Quick test_idle_timeout_expiry;
    Alcotest.test_case "hard timeout" `Quick test_hard_timeout_expiry;
    Alcotest.test_case "strict and loose delete" `Quick test_delete_strict_and_loose;
    Alcotest.test_case "per-rule counters" `Quick test_stats_counters;
    Alcotest.test_case "microflow hit/miss counters" `Quick
      test_microflow_counters;
    Alcotest.test_case "microflow invalidated by mutations" `Quick
      test_microflow_invalidated_by_mutations;
    Alcotest.test_case "microflow invalidated by expiry" `Quick
      test_microflow_expiry_invalidates;
    Alcotest.test_case "negative cache entry invalidated" `Quick
      test_microflow_negative_cache_invalidated;
    Alcotest.test_case "microflow keyed on ingress port" `Quick
      test_microflow_keyed_on_in_port;
    Alcotest.test_case "checker audits cache hits clean" `Quick
      test_microflow_audit_clean;
    QCheck_alcotest.to_alcotest prop_microflow_equivalence;
    QCheck_alcotest.to_alcotest prop_inserted_flow_is_found;
    QCheck_alcotest.to_alcotest prop_model_equivalence;
    QCheck_alcotest.to_alcotest prop_frame_key_agrees;
    QCheck_alcotest.to_alcotest prop_lookup_frame_agrees;
    QCheck_alcotest.to_alcotest prop_slow_path_agrees;
  ]
