open Sdn_net
open Sdn_openflow

type insert_result =
  | Installed
  | Replaced
  | Evicted of Flow_entry.t

type t = {
  capacity : int;
  by_uid : (int, Flow_entry.t) Hashtbl.t;
  exact : int list ref Flow_key.Table.t;
  mutable wildcard_uids : int list;
  mutable next_uid : int;
  mutable lookups : int;
  mutable hits : int;
  mutable evictions : int;
  mutable expirations : int;
  (* OVS-style fast path: exact-match cache over full lookup results,
     flushed on every table mutation. *)
  cache : Flow_entry.t option Microflow.t;
  key : Microflow.key;  (* scratch: the key of the lookup under way *)
  check : Sdn_check.Check.t option;
  name : string;
  clock : unit -> float;
}

let create ?check ?(name = "flow-table")
    ?(clock = fun () -> 0.0) ~capacity () =
  if capacity <= 0 then invalid_arg "Flow_table.create: capacity";
  {
    capacity;
    by_uid = Hashtbl.create 64;
    exact = Flow_key.Table.create 64;
    wildcard_uids = [];
    next_uid = 0;
    lookups = 0;
    hits = 0;
    evictions = 0;
    expirations = 0;
    cache = Microflow.create ();
    key = Microflow.key ();
    check;
    name;
    clock;
  }

let invalidate_cache t = Microflow.flush t.cache

let length t = Hashtbl.length t.by_uid

(* A match is hash-indexable when it pins the whole IPv4 5-tuple; other
   fields (in_port, MACs) only narrow it further and are re-verified at
   lookup time. *)
let index_key (m : Of_match.t) =
  match
    (m.Of_match.dl_type, m.Of_match.nw_proto, m.Of_match.nw_src,
     m.Of_match.nw_dst, m.Of_match.tp_src, m.Of_match.tp_dst)
  with
  | Some dl_type, Some proto, Some (src_ip, 32), Some (dst_ip, 32),
    Some src_port, Some dst_port
    when dl_type = Ethernet.ethertype_ipv4 ->
      Some (Flow_key.make ~proto ~src_ip ~dst_ip ~src_port ~dst_port)
  | _, _, _, _, _, _ -> None

let index_add t key uid =
  match Flow_key.Table.find_opt t.exact key with
  | Some uids -> uids := uid :: !uids
  | None -> Flow_key.Table.add t.exact key (ref [ uid ])

let index_remove t key uid =
  match Flow_key.Table.find_opt t.exact key with
  | None -> ()
  | Some uids ->
      uids := List.filter (fun u -> u <> uid) !uids;
      if !uids = [] then Flow_key.Table.remove t.exact key

let remove_uid t uid =
  match Hashtbl.find_opt t.by_uid uid with
  | None -> ()
  | Some entry ->
      invalidate_cache t;
      Hashtbl.remove t.by_uid uid;
      (match index_key entry.Flow_entry.match_ with
      | Some key -> index_remove t key uid
      | None -> t.wildcard_uids <- List.filter (fun u -> u <> uid) t.wildcard_uids)

let add_entry t entry =
  invalidate_cache t;
  let uid = t.next_uid in
  t.next_uid <- t.next_uid + 1;
  Hashtbl.add t.by_uid uid entry;
  (match index_key entry.Flow_entry.match_ with
  | Some key -> index_add t key uid
  | None -> t.wildcard_uids <- uid :: t.wildcard_uids);
  uid

(* The entry with this exact (priority, match), if any. An identical
   match has the same [index_key], so it can only be filed in that
   key's exact-index bucket, or among the wildcard rules when the key
   is [None]; and [insert] replaces identical entries, so at most one
   exists. *)
let find_identical t ~match_ ~priority =
  let uids =
    match index_key match_ with
    | None -> t.wildcard_uids
    | Some key -> (
        match Flow_key.Table.find_opt t.exact key with
        | Some uids -> !uids
        | None -> [])
  in
  List.find_map
    (fun uid ->
      match Hashtbl.find_opt t.by_uid uid with
      | Some (e : Flow_entry.t)
        when e.Flow_entry.priority = priority
             && Of_match.equal e.Flow_entry.match_ match_ ->
          Some (uid, e)
      | Some _ | None -> None)
    uids

let eviction_victim t =
  (* Least-recently-used among the minimal-priority entries; uid breaks
     remaining ties, so the minimum is unique and the fold result is
     independent of iteration order. lint: allow hashtbl-order *)
  Hashtbl.fold
    (fun uid (e : Flow_entry.t) acc ->
      match acc with
      | None -> Some (uid, e)
      | Some (best_uid, best) ->
          if
            e.Flow_entry.priority < best.Flow_entry.priority
            || (e.Flow_entry.priority = best.Flow_entry.priority
               && (Flow_entry.last_used e < Flow_entry.last_used best
                  || (Flow_entry.last_used e = Flow_entry.last_used best
                     && uid < best_uid)))
          then Some (uid, e)
          else acc)
    t.by_uid None

let insert t entry =
  match
    find_identical t ~match_:entry.Flow_entry.match_
      ~priority:entry.Flow_entry.priority
  with
  | Some (uid, _) ->
      remove_uid t uid;
      ignore (add_entry t entry);
      Replaced
  | None -> (
      let victim =
        if Hashtbl.length t.by_uid < t.capacity then None
        else eviction_victim t
      in
      match victim with
      | None ->
          ignore (add_entry t entry);
          Installed
      | Some (uid, victim) ->
          remove_uid t uid;
          t.evictions <- t.evictions + 1;
          ignore (add_entry t entry);
          Evicted victim)

let candidates t pkt =
  let exact =
    match Packet.flow_key pkt with
    | None -> []
    | Some key -> (
        match Flow_key.Table.find_opt t.exact key with
        | None -> []
        | Some uids -> !uids)
  in
  List.rev_append exact t.wildcard_uids

(* The slow path: highest-priority match over the candidate set. Pure
   (no counters), so the checker can replay it next to a cache hit. *)
let lookup_uncached t ~in_port pkt =
  List.fold_left
    (fun acc uid ->
      match Hashtbl.find_opt t.by_uid uid with
      | None -> acc
      | Some entry ->
          if not (Of_match.matches entry.Flow_entry.match_ ~in_port pkt) then
            acc
          else begin
            match acc with
            | None -> Some entry
            | Some (current : Flow_entry.t) ->
                if entry.Flow_entry.priority > current.Flow_entry.priority
                then Some entry
                else acc
          end)
    None (candidates t pkt)

(* With the checker armed, every cache hit replays the slow path and
   the two results must name the same physical entry (or agree on a
   miss). The comparison never alters the returned value, so checked
   runs stay byte-identical to unchecked ones. *)
let audit_hit t ~in_port pkt cached =
  match t.check with
  | None -> ()
  | Some check ->
      let slow = lookup_uncached t ~in_port pkt in
      let agree =
        match (cached, slow) with
        | Some (a : Flow_entry.t), Some b -> a == b
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      let detail =
        if agree then ""
        else
          let describe = function
            | None -> "miss"
            | Some (e : Flow_entry.t) ->
                Format.asprintf "%a prio=%d" Of_match.pp e.Flow_entry.match_
                  e.Flow_entry.priority
          in
          Printf.sprintf "cache=%s table=%s" (describe cached) (describe slow)
      in
      Sdn_check.Check.note_microflow check ~time:(t.clock ()) ~table:t.name
        ~agree ~detail

(* The slow path's answer, cached under the key loaded into [t.key]. *)
let fill t ~in_port pkt =
  let result = lookup_uncached t ~in_port pkt in
  Microflow.add t.cache t.key result;
  result

let counted t best =
  t.lookups <- t.lookups + 1;
  (match best with Some _ -> t.hits <- t.hits + 1 | None -> ());
  best

let lookup t ~in_port pkt =
  counted t
    (if Microflow.load_packet t.key ~in_port pkt then
       match Microflow.find t.cache t.key with
       | Some cached ->
           audit_hit t ~in_port pkt cached;
           cached
       | None -> fill t ~in_port pkt
     else lookup_uncached t ~in_port pkt)

(* The frame is built into a packet only where the slow path runs:
   on a cache miss, for an uncacheable frame, or to audit a hit. *)
let lookup_frame t ~in_port frame =
  counted t
    (if Microflow.load_frame t.key ~in_port frame then
       match Microflow.find t.cache t.key with
       | Some cached ->
           if Option.is_some t.check then
             audit_hit t ~in_port (Packet.build frame) cached;
           cached
       | None -> fill t ~in_port (Packet.build frame)
     else lookup_uncached t ~in_port (Packet.build frame))

let entry_outputs_to (e : Flow_entry.t) port =
  List.exists
    (function
      | Of_action.Output { port = p; _ } -> p = port
      | Of_action.Enqueue { port = p; _ } -> p = port
      | Of_action.Set_vlan_vid _ | Of_action.Set_vlan_pcp _
      | Of_action.Strip_vlan | Of_action.Set_dl_src _ | Of_action.Set_dl_dst _
      | Of_action.Set_nw_src _ | Of_action.Set_nw_dst _ | Of_action.Set_nw_tos _
      | Of_action.Set_tp_src _ | Of_action.Set_tp_dst _ ->
          false)
    e.Flow_entry.actions

let delete t ~strict ?(out_port = Of_wire.Port.none) ~match_ ~priority () =
  let port_ok e = out_port = Of_wire.Port.none || entry_outputs_to e out_port in
  let doomed =
    if strict then
      match find_identical t ~match_ ~priority with
      | Some (uid, e) when port_ok e -> [ uid ]
      | Some _ | None -> []
    else
      (* uid order = install order; keeps the removal sequence
         deterministic. *)
      List.sort Int.compare
        (Hashtbl.fold
           (fun uid (e : Flow_entry.t) acc ->
             if
               Of_match.subsumes ~general:match_ ~specific:e.Flow_entry.match_
               && port_ok e
             then uid :: acc
             else acc)
           t.by_uid [])
  in
  List.iter (remove_uid t) doomed;
  List.length doomed

let expire t ~now =
  let doomed =
    Hashtbl.fold
      (fun uid (e : Flow_entry.t) acc ->
        if Flow_entry.is_expired e ~now then (uid, e) :: acc else acc)
      t.by_uid []
  in
  (* The expired entries escape to flow_removed notifications, so order
     them by uid (install order) rather than hash-table iteration. *)
  let doomed = List.sort (fun (a, _) (b, _) -> Int.compare a b) doomed in
  List.iter (fun (uid, _) -> remove_uid t uid) doomed;
  t.expirations <- t.expirations + List.length doomed;
  List.map snd doomed

let clear t =
  let n = Hashtbl.length t.by_uid in
  Hashtbl.reset t.by_uid;
  Flow_key.Table.reset t.exact;
  t.wildcard_uids <- [];
  invalidate_cache t;
  n

let entries t =
  (* Entries escape to stats replies; uid order = install order. *)
  Hashtbl.fold (fun uid e acc -> (uid, e) :: acc) t.by_uid []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let to_stats t ~now = List.map (Flow_entry.to_stats ~now) (entries t)

let lookups t = t.lookups
let misses t = t.lookups - t.hits
let evictions t = t.evictions
let expirations t = t.expirations

let microflow_hits t = Microflow.hits t.cache
let microflow_misses t = Microflow.misses t.cache
let microflow_flushes t = Microflow.flushes t.cache
let microflow_length t = Microflow.length t.cache
