open Sdn_net
open Sdn_openflow

type insert_result =
  | Installed
  | Replaced
  | Evicted of Flow_entry.t

(* One installed rule. [uid] orders installs, so a fold whose order
   escapes sorts by it; [found] is [Some entry], built once, so the slow
   path returns a stored option; [at] is its slot in [rules]. *)
type rule = {
  uid : int;
  entry : Flow_entry.t;
  found : Flow_entry.t option;
  mutable at : int;
}

type t = {
  capacity : int;
  (* Rules pinning the whole 5-tuple, by its three words, each bucket
     newest first; every other rule, newest first. *)
  exact : rule list Int_table.t;
  mutable wildcard : rule list;
  mutable rules : rule array;  (* every rule, densely, in no order *)
  mutable length : int;
  mutable next_uid : int;
  mutable lookups : int;
  mutable hits : int;
  mutable evictions : int;
  mutable expirations : int;
  (* OVS-style fast path: an exact-match cache of full lookup results
     (misses too) on the microflow key, flushed on every table mutation
     and reset when full. *)
  cache : Flow_entry.t option option Int_table.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_flushes : int;
  key : Microflow.key;  (* scratch: the key of the lookup under way *)
  words : int array;  (* scratch: an exact-index key *)
  check : Sdn_check.Check.t option;
  name : string;
  clock : unit -> float;
}

let create ?check ?(name = "flow-table")
    ?(clock = fun () -> 0.0) ~capacity () =
  if capacity <= 0 then invalid_arg "Flow_table.create: capacity";
  {
    capacity;
    exact = Int_table.create ~words:Microflow.tuple_words [];
    wildcard = [];
    rules = [||];
    length = 0;
    next_uid = 0;
    lookups = 0;
    hits = 0;
    evictions = 0;
    expirations = 0;
    cache = Int_table.create ~words:Microflow.words None;
    cache_hits = 0;
    cache_misses = 0;
    cache_flushes = 0;
    key = Microflow.key ();
    words = Array.make Microflow.tuple_words 0;
    check;
    name;
    clock;
  }

let invalidate_cache t =
  if Int_table.length t.cache > 0 then begin
    Int_table.clear t.cache;
    t.cache_flushes <- t.cache_flushes + 1
  end

let length t = t.length

(* Load [t.words] with the exact-index key of a match that pins the
   whole IPv4 5-tuple; other fields (in_port, MACs) only narrow it
   further and are checked at lookup. [false] files the match with the
   wildcard rules. *)
let index_key t (m : Of_match.t) =
  match
    (m.Of_match.dl_type, m.Of_match.nw_proto, m.Of_match.nw_src,
     m.Of_match.nw_dst, m.Of_match.tp_src, m.Of_match.tp_dst)
  with
  | Some dl_type, Some proto, Some (src_ip, 32), Some (dst_ip, 32),
    Some src_port, Some dst_port
    when dl_type = Ethernet.ethertype_ipv4 ->
      Microflow.load_tuple t.words ~proto ~src_ip ~dst_ip ~src_port ~dst_port
  | _, _, _, _, _, _ -> false

let remove_rule t r =
  invalidate_cache t;
  t.length <- t.length - 1;
  (* The last rule fills the hole, and the slot it leaves points at a
     live rule, so a removed rule stays referenced only while the table
     is empty. *)
  let last = t.rules.(t.length) in
  last.at <- r.at;
  t.rules.(r.at) <- last;
  t.rules.(t.length) <- t.rules.(0);
  let others = List.filter (fun o -> o != r) in
  if index_key t r.entry.Flow_entry.match_ then
    match others (Int_table.find t.exact t.words) with
    | [] -> Int_table.remove t.exact t.words
    | bucket -> Int_table.replace t.exact t.words bucket
  else t.wildcard <- others t.wildcard

let add_entry t entry =
  invalidate_cache t;
  let r = { uid = t.next_uid; entry; found = Some entry; at = t.length } in
  t.next_uid <- t.next_uid + 1;
  if t.length = Array.length t.rules then
    t.rules <- Array.append t.rules (Array.make (Int.max 16 t.length) r);
  t.rules.(t.length) <- r;
  t.length <- t.length + 1;
  if index_key t entry.Flow_entry.match_ then
    Int_table.replace t.exact t.words (r :: Int_table.find t.exact t.words)
  else t.wildcard <- r :: t.wildcard

(* Every rule, in no particular order: a caller whose result escapes
   sorts by uid. *)
let fold_rules f t init =
  let acc = ref init in
  for i = 0 to t.length - 1 do
    acc := f t.rules.(i) !acc
  done;
  !acc

let by_uid rules = List.sort (fun a b -> Int.compare a.uid b.uid) rules

(* The rule with this exact (priority, match), if any. An identical
   match has the same index key, so it can only be filed in that key's
   exact-index bucket, or among the wildcard rules when it has none;
   and [insert] replaces identical entries, so at most one exists. *)
let find_identical t ~match_ ~priority =
  List.find_opt
    (fun r ->
      r.entry.Flow_entry.priority = priority
      && Of_match.equal r.entry.Flow_entry.match_ match_)
    (if index_key t match_ then Int_table.find t.exact t.words
     else t.wildcard)

(* Least-recently-used among the minimal-priority entries; uid breaks
   remaining ties, so the minimum is unique and the fold result is
   independent of its order. *)
let eviction_victim t =
  let older a b =
    let pa = a.entry.Flow_entry.priority and pb = b.entry.Flow_entry.priority in
    pa < pb
    || pa = pb
       && (Flow_entry.last_used a.entry < Flow_entry.last_used b.entry
          || Flow_entry.last_used a.entry = Flow_entry.last_used b.entry
             && a.uid < b.uid)
  in
  fold_rules
    (fun r acc ->
      match acc with Some best when not (older r best) -> acc | _ -> Some r)
    t None

let insert t entry =
  match
    find_identical t ~match_:entry.Flow_entry.match_
      ~priority:entry.Flow_entry.priority
  with
  | Some r ->
      remove_rule t r;
      add_entry t entry;
      Replaced
  | None -> (
      match if t.length < t.capacity then None else eviction_victim t with
      | None ->
          add_entry t entry;
          Installed
      | Some victim ->
          remove_rule t victim;
          t.evictions <- t.evictions + 1;
          add_entry t entry;
          Evicted victim.entry)

(* The reference slow path, on a packet: the highest-priority match over
   the packet's exact-index bucket, oldest first, then the wildcard
   rules, newest first; a later candidate wins only with a strictly
   higher priority. Pure (no counters), so the checker can replay it
   next to any lookup. *)
let lookup_uncached t ~in_port pkt =
  let exact =
    match Packet.flow_key pkt with
    | Some key when Microflow.load_flow_key t.words key ->
        Int_table.find t.exact t.words
    | Some _ | None -> []
  in
  List.fold_left
    (fun acc r ->
      let entry = r.entry in
      if not (Of_match.matches entry.Flow_entry.match_ ~in_port pkt) then acc
      else begin
        match acc with
        | None -> Some entry
        | Some (current : Flow_entry.t) ->
            if entry.Flow_entry.priority > current.Flow_entry.priority then
              Some entry
            else acc
      end)
    None
    (List.rev_append exact t.wildcard)

(* The slow path on a loaded key, in [lookup_uncached]'s order. A
   bucket is newest first, so [best_exact] recurses to its oldest rule
   before weighing the rest. *)
let consider k best r =
  if not (Microflow.matches k r.entry.Flow_entry.match_) then best
  else
    match best with
    | Some (b : Flow_entry.t)
      when r.entry.Flow_entry.priority <= b.Flow_entry.priority ->
        best
    | Some _ | None -> r.found

let rec best_exact k best = function
  | [] -> best
  | r :: older -> consider k (best_exact k best older) r

let rec best_wildcard k best = function
  | [] -> best
  | r :: rest -> best_wildcard k (consider k best r) rest

let slow_path t =
  Microflow.tuple_of_key t.key t.words;
  best_wildcard t.key
    (best_exact t.key None (Int_table.find t.exact t.words))
    t.wildcard

(* With the checker armed, a lookup's answer is replayed on the
   reference, and the two must name the same physical entry (or agree
   on a miss). A cache hit records the agreement; a slow-path answer
   reports only a disagreement, so a clean run's event trace stays
   what it was. The comparison never alters the returned value, so
   checked runs stay byte-identical to unchecked ones. *)
let audit t check ~in_port pkt answer ~hit =
  let slow = lookup_uncached t ~in_port pkt in
  let agree = Option.equal ( == ) answer slow in
  let describe = function
    | None -> "miss"
    | Some (e : Flow_entry.t) ->
        Format.asprintf "%a prio=%d" Of_match.pp e.Flow_entry.match_
          e.Flow_entry.priority
  in
  if hit || not agree then
    Sdn_check.Check.note_microflow check ~time:(t.clock ()) ~table:t.name
      ~agree
      ~detail:
        (if agree then ""
         else
           Printf.sprintf "%s=%s table=%s"
             (if hit then "cache" else "slow-path")
             (describe answer) (describe slow))

let counted t best =
  t.lookups <- t.lookups + 1;
  (match best with Some _ -> t.hits <- t.hits + 1 | None -> ());
  best

(* The answer for the key loaded into [t.key]: the cached option, so a
   hit allocates nothing; else the slow path's, which fills the cache
   (reset whole at 8192 answers: crude but deterministic, and the
   steady state never reaches it). [pkt] is the packet to audit, given
   only while a checker is armed. *)
let keyed t ~in_port pkt =
  let hit = Int_table.find t.cache t.key in
  let answer =
    match hit with
    | Some cached ->
        t.cache_hits <- t.cache_hits + 1;
        cached
    | None ->
        t.cache_misses <- t.cache_misses + 1;
        slow_path t
  in
  (match (t.check, pkt) with
  | Some check, Some pkt ->
      audit t check ~in_port pkt answer ~hit:(Option.is_some hit)
  | Some _, None | None, _ -> ());
  if Option.is_none hit then begin
    if Int_table.length t.cache >= 8192 then invalidate_cache t;
    Int_table.replace t.cache t.key (Some answer)
  end;
  answer

let lookup t ~in_port pkt =
  counted t
    (if Microflow.load_packet t.key ~in_port pkt then
       keyed t ~in_port (if Option.is_some t.check then Some pkt else None)
     else lookup_uncached t ~in_port pkt)

(* A frame is built into a packet only for the reference: for a frame
   without a 5-tuple, or to audit. *)
let lookup_frame t ~in_port frame =
  counted t
    (if Microflow.load_frame t.key ~in_port frame then
       keyed t ~in_port
         (if Option.is_some t.check then Some (Packet.build frame) else None)
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
      | Some r when port_ok r.entry -> [ r ]
      | Some _ | None -> []
    else
      (* uid order = install order; keeps the removal sequence
         deterministic. *)
      by_uid
        (fold_rules
           (fun r acc ->
             if
               Of_match.subsumes ~general:match_
                 ~specific:r.entry.Flow_entry.match_
               && port_ok r.entry
             then r :: acc
             else acc)
           t [])
  in
  List.iter (remove_rule t) doomed;
  List.length doomed

let expire t ~now =
  (* The expired entries escape to flow_removed notifications, so order
     them by uid (install order). *)
  let doomed =
    by_uid
      (fold_rules
         (fun r acc -> if Flow_entry.is_expired r.entry ~now then r :: acc else acc)
         t [])
  in
  List.iter (remove_rule t) doomed;
  t.expirations <- t.expirations + List.length doomed;
  List.map (fun r -> r.entry) doomed

let clear t =
  let n = t.length in
  Int_table.clear t.exact;
  t.wildcard <- [];
  t.rules <- [||];
  t.length <- 0;
  invalidate_cache t;
  n

(* Entries escape to stats replies; uid order = install order. *)
let entries t = List.map (fun r -> r.entry) (by_uid (fold_rules List.cons t []))

let to_stats t ~now = List.map (Flow_entry.to_stats ~now) (entries t)

let lookups t = t.lookups
let misses t = t.lookups - t.hits
let evictions t = t.evictions
let expirations t = t.expirations

let microflow_hits t = t.cache_hits
let microflow_misses t = t.cache_misses
let microflow_flushes t = t.cache_flushes
let microflow_length t = Int_table.length t.cache
