(* The lifecycle of buffer units under both mechanisms, against a
   model: random claims, takes of live, stale and never-issued ids,
   cold wipes and time advancing past the reclaim lag, with the
   invariant checker armed. *)

open Sdn_sim
open Sdn_net
open Sdn_switch

let capacity = 3

(* Advances of 3 ms and 25 ms never sum to exactly the 10 ms lag. *)
let reclaim_lag = 0.01

type target = Live of int | Stale of int | Never of int

type op =
  | Alloc
  | Add of int
  | Take of target
  | Take_all of target
  | Wipe
  | Advance of float

let show_target = function
  | Live n -> Printf.sprintf "live %d" n
  | Stale n -> Printf.sprintf "stale %d" n
  | Never n -> Printf.sprintf "never %d" n

let show_op = function
  | Alloc -> "alloc"
  | Add k -> Printf.sprintf "add flow %d" k
  | Take t -> "take " ^ show_target t
  | Take_all t -> "take_all " ^ show_target t
  | Wipe -> "wipe"
  | Advance dt -> Printf.sprintf "advance %g" dt

let op_gen =
  let open QCheck.Gen in
  let target =
    frequency
      [
        (3, map (fun n -> Live n) small_nat);
        (2, map (fun n -> Stale n) small_nat);
        (1, map (fun n -> Never n) small_nat);
      ]
  in
  frequency
    [
      (3, return Alloc);
      (3, map (fun k -> Add k) (int_bound 3));
      (3, map (fun t -> Take t) target);
      (3, map (fun t -> Take_all t) target);
      (1, return Wipe);
      (2, map (fun dt -> Advance dt) (oneofl [ 0.003; 0.025 ]));
    ]

(* Slots at or past the capacity, a generation no short run reaches,
   and [Of_wire.no_buffer]. *)
let never_issued = [| 0x0000_0003l; 0x0001_FFFEl; 0x7ABC_0001l; 0xFFFF_FFFFl |]

(* One pool's expected state: its held units (id and frames, in
   arrival order), the ids of units taken or wiped, and when each
   released unit's reclaim lag runs out. *)
type model = {
  mutable live : (int32 * int * Bytes.t list) list;
  mutable stale : int32 list;
  mutable reclaiming : float list;
}

let fresh_model () = { live = []; stale = []; reclaiming = [] }
let model_in_use m = List.length m.live + List.length m.reclaiming
let pick l n = List.nth l (n mod List.length l)

(* The id a take aims at, and the live unit it names, if any. *)
let aim m target =
  let never n = (never_issued.(n mod Array.length never_issued), None) in
  match target with
  | Live n when m.live <> [] ->
      let ((id, _, _) as u) = pick m.live n in
      (id, Some u)
  | Stale n when m.stale <> [] -> (pick m.stale n, None)
  | Live n | Stale n | Never n -> never n

let taken m ~now ((id, _, _) as u) =
  m.live <- List.filter (fun v -> v != u) m.live;
  m.stale <- id :: m.stale;
  m.reclaiming <- (now +. reclaim_lag) :: m.reclaiming

let fail fmt = QCheck.Test.fail_reportf fmt

let check_pool name m units =
  let in_use = Buffer_units.in_use units in
  if in_use <> model_in_use m then
    fail "%s: %d units in use, expected %d held + %d reclaiming" name in_use
      (List.length m.live) (List.length m.reclaiming);
  if in_use > capacity then fail "%s: %d units in use over capacity" name in_use;
  let ids = List.map (fun (id, _, _) -> id) m.live in
  if List.length (List.sort_uniq Int32.compare ids) <> List.length ids then
    fail "%s: two live units share a buffer_id" name

let key k =
  Flow_key.make ~proto:17 ~src_ip:(Ip.make 10 0 0 1) ~dst_ip:(Ip.make 10 0 0 2)
    ~src_port:(1000 + k) ~dst_port:9

let run ops =
  let engine = Engine.create () in
  let check = Sdn_check.Check.create () in
  let pkt =
    Packet_buffer.create engine ~check ~capacity ~expiry:100.0 ~reclaim_lag ()
  in
  let flow =
    Flow_buffer.create engine ~check ~capacity ~reclaim_lag
      ~resend_timeout:100.0 ~max_resends:3
      ~on_resend:(fun ~buffer_id:_ ~key:_ ~first_frame:_ -> ())
      ()
  in
  let pm = fresh_model () and fm = fresh_model () in
  let now = ref 0.0 and serial = ref 0 in
  let next_frame () =
    incr serial;
    Bytes.of_string (Printf.sprintf "frame-%d" !serial)
  in
  let fresh m id =
    if List.exists (fun (live, _, _) -> Int32.equal live id) m.live then
      fail "buffer_id %ld issued while live" id
  in
  List.iter
    (fun op ->
      (match op with
      | Alloc -> (
          let frame = next_frame () in
          match Packet_buffer.alloc pkt ~frame with
          | Some id ->
              if model_in_use pm >= capacity then fail "alloc beyond capacity";
              fresh pm id;
              pm.live <- (id, 0, [ frame ]) :: pm.live
          | None ->
              if model_in_use pm < capacity then
                fail "alloc refused with a unit free")
      | Add k -> (
          let frame = next_frame () in
          match
            ( Flow_buffer.add flow ~key:(key k) ~frame,
              List.find_opt (fun (_, k', _) -> k' = k) fm.live )
          with
          | Flow_buffer.Appended id, Some ((id', _, frames) as u) ->
              if not (Int32.equal id id') then fail "append changed the id";
              fm.live <-
                (id, k, frames @ [ frame ])
                :: List.filter (fun v -> v != u) fm.live
          | Flow_buffer.First id, None ->
              if model_in_use fm >= capacity then fail "add beyond capacity";
              fresh fm id;
              fm.live <- (id, k, [ frame ]) :: fm.live
          | Flow_buffer.No_space, None ->
              if model_in_use fm < capacity then
                fail "add refused with a unit free"
          | (Flow_buffer.First _ | Flow_buffer.No_space), Some _ ->
              fail "flow %d not chained onto its live unit" k
          | Flow_buffer.Appended _, None -> fail "flow %d appended to no unit" k)
      | Take target -> (
          let id, unit_ = aim pm target in
          match (Packet_buffer.take pkt id, unit_) with
          | Packet_buffer.Taken frame, Some ((_, _, [ expected ]) as u) ->
              if not (Bytes.equal frame expected) then fail "wrong frame";
              taken pm ~now:!now u
          | Packet_buffer.Unknown_id, None -> ()
          | Packet_buffer.Taken _, _ -> fail "id %ld answered after it died" id
          | Packet_buffer.Unknown_id, Some _ ->
              fail "live id %ld answered Unknown_id" id)
      | Take_all target -> (
          let id, unit_ = aim fm target in
          match (Flow_buffer.take_all flow id, unit_) with
          | Flow_buffer.Taken frames, Some ((_, _, expected) as u) ->
              if not (List.equal Bytes.equal frames expected) then
                fail "wrong chain";
              taken fm ~now:!now u
          | Flow_buffer.Unknown_id, None -> ()
          | Flow_buffer.Taken _, _ -> fail "id %ld answered after it died" id
          | Flow_buffer.Unknown_id, Some _ ->
              fail "live id %ld answered Unknown_id" id)
      | Wipe ->
          let packets m =
            List.fold_left (fun n (_, _, f) -> n + List.length f) 0 m.live
          in
          let expect_pkt = packets pm and expect_flow = packets fm in
          if Packet_buffer.wipe pkt <> expect_pkt then fail "packet wipe count";
          if Flow_buffer.wipe flow <> expect_flow then fail "flow wipe count";
          List.iter
            (fun m ->
              m.stale <- List.map (fun (id, _, _) -> id) m.live @ m.stale;
              m.live <- [];
              m.reclaiming <- [])
            [ pm; fm ]
      | Advance dt ->
          now := !now +. dt;
          Engine.run ~until:!now engine;
          List.iter
            (fun m ->
              m.reclaiming <- List.filter (fun due -> due > !now) m.reclaiming)
            [ pm; fm ]);
      check_pool "packet pool" pm (Packet_buffer.units pkt);
      check_pool "flow pool" fm (Flow_buffer.units flow);
      if Sdn_check.Check.violation_count check > 0 then
        fail "checker violation after %s" (show_op op))
    ops;
  true

let prop_unit_lifecycle =
  QCheck.Test.make ~name:"buffer units keep their lifecycle" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        ~shrink:Shrink.list
        Gen.(list_size (int_range 1 80) op_gen))
    run

let suite = [ QCheck_alcotest.to_alcotest prop_unit_lifecycle ]
