open Sdn_openflow

type violation = {
  time : float;
  invariant : string;
  detail : string;
  trace : (float * string) list;
}

exception Violation of violation

(* Per-unit ledger entry: a unit is [Live] from allocation until its
   single release or expiry, after which the id must never come back
   (generations make recycled slots produce fresh ids). *)
type buffer_state = { mutable packets : int; mutable originals : int }

(* Shared-pool conservation ledger: one entry per policy-managed pool.
   [holdings] keeps registration order (an assoc list, not a table) so
   every report derived from it is deterministic. *)
type pool_ledger = {
  mutable pool_capacity : int;
  mutable holdings : (string * int ref) list;
}

type t = {
  trace_depth : int;
  raise_on_violation : bool;
  (* Most recent first; trimmed to [trace_depth]. *)
  mutable trace_rev : (float * string) list;
  mutable trace_len : int;
  mutable violations_rev : violation list;
  mutable events : int;
  live : (string * int32, buffer_state) Hashtbl.t;
  closed : (string * int32, unit) Hashtbl.t;
  xids : (string * int32, unit) Hashtbl.t;
  pools : (string, pool_ledger) Hashtbl.t;
}

let create ?(trace_depth = 48) ?(raise_on_violation = false) () =
  {
    trace_depth;
    raise_on_violation;
    trace_rev = [];
    trace_len = 0;
    violations_rev = [];
    events = 0;
    live = Hashtbl.create 256;
    closed = Hashtbl.create 256;
    xids = Hashtbl.create 1024;
    pools = Hashtbl.create 8;
  }

let record t ~time event =
  t.events <- t.events + 1;
  t.trace_rev <- (time, event) :: t.trace_rev;
  t.trace_len <- t.trace_len + 1;
  if t.trace_len > 2 * t.trace_depth then begin
    (* Amortised trim: keep the most recent [trace_depth] events. *)
    t.trace_rev <- List.filteri (fun i _ -> i < t.trace_depth) t.trace_rev;
    t.trace_len <- t.trace_depth
  end

let trace_tail t =
  List.rev (List.filteri (fun i _ -> i < t.trace_depth) t.trace_rev)

let violate t ~time ~invariant detail =
  record t ~time (Printf.sprintf "VIOLATION [%s] %s" invariant detail);
  let v = { time; invariant; detail; trace = trace_tail t } in
  t.violations_rev <- v :: t.violations_rev;
  if t.raise_on_violation then raise (Violation v)

(* ---- Buffer conservation + single PACKET_IN ---- *)

let unit_name pool id = Printf.sprintf "%s/%ld" pool id

let note_buffer_alloc t ~time ~pool ~id =
  record t ~time (Printf.sprintf "alloc %s" (unit_name pool id));
  let key = (pool, id) in
  if Hashtbl.mem t.live key then
    violate t ~time ~invariant:"buffer-conservation"
      (Printf.sprintf "buffer id %s re-allocated while live"
         (unit_name pool id))
  else begin
    Hashtbl.remove t.closed key;
    Hashtbl.replace t.live key { packets = 1; originals = 0 }
  end

let not_live_detail t ~pool ~id ~what =
  if Hashtbl.mem t.closed (pool, id) then
    Printf.sprintf "%s of %s after it was already released or expired" what
      (unit_name pool id)
  else Printf.sprintf "%s of never-allocated id %s" what (unit_name pool id)

let note_buffer_append t ~time ~pool ~id =
  record t ~time (Printf.sprintf "append %s" (unit_name pool id));
  match Hashtbl.find_opt t.live (pool, id) with
  | Some u -> u.packets <- u.packets + 1
  | None ->
      violate t ~time ~invariant:"buffer-conservation"
        (not_live_detail t ~pool ~id ~what:"append")

let close t ~time ~pool ~id ~what ~packets =
  let key = (pool, id) in
  match Hashtbl.find_opt t.live key with
  | Some u ->
      (match packets with
      | Some n when n <> u.packets ->
          violate t ~time ~invariant:"buffer-conservation"
            (Printf.sprintf "%s of %s returned %d packet(s), %d were buffered"
               what (unit_name pool id) n u.packets)
      | Some _ | None -> ());
      Hashtbl.remove t.live key;
      Hashtbl.replace t.closed key ()
  | None ->
      violate t ~time ~invariant:"buffer-conservation"
        (not_live_detail t ~pool ~id ~what)

let note_buffer_release t ~time ~pool ~id ~packets =
  record t ~time
    (Printf.sprintf "release %s (%d pkt)" (unit_name pool id) packets);
  close t ~time ~pool ~id ~what:"release" ~packets:(Some packets)

let note_buffer_expire t ~time ~pool ~id =
  record t ~time (Printf.sprintf "expire %s" (unit_name pool id));
  close t ~time ~pool ~id ~what:"expiry" ~packets:None

let note_packet_in t ~time ~pool ~id ~resend =
  record t ~time
    (Printf.sprintf "packet_in%s %s"
       (if resend then " (resend)" else "")
       (unit_name pool id));
  match Hashtbl.find_opt t.live (pool, id) with
  | Some u ->
      if not resend then begin
        u.originals <- u.originals + 1;
        if u.originals > 1 then
          violate t ~time ~invariant:"single-packet-in"
            (Printf.sprintf
               "second original PACKET_IN for live chain %s (appends must be \
                silent)"
               (unit_name pool id))
      end
  | None ->
      violate t ~time ~invariant:"single-packet-in"
        (not_live_detail t ~pool ~id ~what:"PACKET_IN")

(* ---- Crash state-loss ---- *)

let note_crash_wipe t ~time ~pool =
  record t ~time (Printf.sprintf "crash wipe %s" pool);
  (* Sorted by id, so the verdict is independent of table iteration
     order (the sort discharges the hashtbl-order rule). *)
  let survivors =
    Hashtbl.fold
      (fun (p, id) _ acc -> if String.equal p pool then id :: acc else acc)
      t.live []
    |> List.sort Int32.compare
  in
  match survivors with
  | [] -> ()
  | ids ->
      violate t ~time ~invariant:"cold-restart-wipe"
        (Printf.sprintf "%d chain(s) survived the cold restart of pool %s: %s"
           (List.length ids) pool
           (String.concat ", " (List.map Int32.to_string ids)))

(* ---- Shared-pool conservation ---- *)

let pool_ledger t pool =
  match Hashtbl.find_opt t.pools pool with
  | Some ledger -> ledger
  | None ->
      let ledger = { pool_capacity = 0; holdings = [] } in
      Hashtbl.replace t.pools pool ledger;
      ledger

let holdings_sum ledger =
  List.fold_left (fun acc (_, n) -> acc + !n) 0 ledger.holdings

(* The invariant itself: at every ledger event the per-class holdings
   and the pool's reported free count must tile the capacity exactly —
   no unit is ever double-claimed or leaked. *)
let check_pool_conservation t ~time ~pool ledger ~free =
  let sum = holdings_sum ledger in
  if sum + free <> ledger.pool_capacity then
    violate t ~time ~invariant:"shared-pool-conservation"
      (Printf.sprintf
         "pool %s: class holdings (%d) + free (%d) <> capacity (%d)" pool sum
         free ledger.pool_capacity)

let note_pool_create t ~time ~pool ~headroom =
  record t ~time (Printf.sprintf "pool create %s headroom=%d" pool headroom);
  let ledger = pool_ledger t pool in
  (* Headroom is pool capacity beyond the sum of class quotas; without
     it the ledger would under-count and flag every claim. *)
  ledger.pool_capacity <- ledger.pool_capacity + headroom

let note_pool_register t ~time ~pool ~class_ ~quota =
  record t ~time
    (Printf.sprintf "pool register %s/%s quota=%d" pool class_ quota);
  let ledger = pool_ledger t pool in
  if List.mem_assoc class_ ledger.holdings then
    violate t ~time ~invariant:"shared-pool-conservation"
      (Printf.sprintf "pool %s: class %s registered twice" pool class_)
  else begin
    (* Append keeps registration order for deterministic reports. *)
    ledger.holdings <- ledger.holdings @ [ (class_, ref 0) ];
    ledger.pool_capacity <- ledger.pool_capacity + quota
  end

let note_pool_claim t ~time ~pool ~class_ ~free =
  record t ~time (Printf.sprintf "pool claim %s/%s free=%d" pool class_ free);
  let ledger = pool_ledger t pool in
  (match List.assoc_opt class_ ledger.holdings with
  | Some n -> incr n
  | None ->
      violate t ~time ~invariant:"shared-pool-conservation"
        (Printf.sprintf "pool %s: claim by unregistered class %s" pool class_));
  check_pool_conservation t ~time ~pool ledger ~free

let note_pool_release t ~time ~pool ~class_ ~free =
  record t ~time
    (Printf.sprintf "pool release %s/%s free=%d" pool class_ free);
  let ledger = pool_ledger t pool in
  (match List.assoc_opt class_ ledger.holdings with
  | Some n ->
      decr n;
      if !n < 0 then
        violate t ~time ~invariant:"shared-pool-conservation"
          (Printf.sprintf "pool %s: class %s holdings went negative" pool
             class_)
  | None ->
      violate t ~time ~invariant:"shared-pool-conservation"
        (Printf.sprintf "pool %s: release by unregistered class %s" pool
           class_));
  check_pool_conservation t ~time ~pool ledger ~free

let note_reconciliation t ~time ~session ~agree ~detail =
  record t ~time
    (Printf.sprintf "reconciliation %s: flow views %s" session
       (if agree then "agree" else "DISAGREE"));
  if not agree then
    violate t ~time ~invariant:"flow-reconciliation"
      (Printf.sprintf
         "session %s: post-reconciliation flow tables disagree between \
          controller view and switch (%s)"
         session detail)

(* ---- Microflow-cache agreement ---- *)

let note_microflow t ~time ~table ~agree ~detail =
  record t ~time
    (Printf.sprintf "microflow %s: cached lookup %s" table
       (if agree then "agrees" else "DISAGREES"));
  if not agree then
    violate t ~time ~invariant:"microflow-agreement"
      (Printf.sprintf
         "table %s: cached lookup disagrees with full flow-table lookup (%s)"
         table detail)

let note_parallel_replay t ~time ~task ~equal ~detail =
  record t ~time
    (Printf.sprintf "parallel replay %s: sequential rerun %s" task
       (if equal then "agrees" else "DISAGREES"));
  if not equal then
    violate t ~time ~invariant:"parallel-equivalence"
      (Printf.sprintf
         "task %s: parallel result disagrees with its sequential replay (%s)"
         task detail)

(* ---- Control-session invariants ---- *)

(* Legal edges of {!Sdn_switch.Session}: the keepalive may degrade
   Up -> Probing -> Down, detection fires only from Up/Probing, probes
   move Down -> Reconnecting, and any proof of liveness restores to Up
   (from Probing, Down or Reconnecting). The handshake normally only
   settles into Up — but a node crash can kill a session in any live
   state, so handshaking -> down is legal too. *)
let legal_transitions =
  [
    ("handshaking", "up");
    ("handshaking", "down");
    ("up", "probing");
    ("up", "down");
    ("probing", "up");
    ("probing", "down");
    ("down", "reconnecting");
    ("down", "up");
    ("reconnecting", "up");
  ]

let note_session_transition t ~time ~session ~from_ ~to_ =
  record t ~time (Printf.sprintf "session %s: %s -> %s" session from_ to_);
  if
    not
      (List.exists
         (fun (a, b) -> String.equal a from_ && String.equal b to_)
         legal_transitions)
  then
    violate t ~time ~invariant:"session-transitions"
      (Printf.sprintf "illegal transition %s -> %s on session %s" from_ to_
         session)

let note_emit t ~time ~session ~fresh ~xid ~msg ~encoded =
  record t ~time
    (Printf.sprintf "emit %s xid=%ld %s%s" session xid
       (Of_wire.Msg_type.to_string (Of_codec.msg_type msg))
       (if fresh then " fresh" else ""));
  (match Of_codec.decode encoded with
  | Ok (xid', msg') when Int32.equal xid xid' && Of_codec.equal msg msg' -> ()
  | Ok (xid', _) when not (Int32.equal xid xid') ->
      violate t ~time ~invariant:"codec-roundtrip"
        (Printf.sprintf "session %s: encoded xid %ld decoded back as %ld"
           session xid xid')
  | Ok (_, msg') ->
      violate t ~time ~invariant:"codec-roundtrip"
        (Format.asprintf
           "session %s xid=%ld: decode (encode m) <> m (got %a, sent %a)"
           session xid Of_codec.pp msg' Of_codec.pp msg)
  | Error e ->
      violate t ~time ~invariant:"codec-roundtrip"
        (Printf.sprintf "session %s xid=%ld: emitted message fails to decode: %s"
           session xid e));
  if fresh then begin
    let key = (session, xid) in
    if Hashtbl.mem t.xids key then
      violate t ~time ~invariant:"xid-uniqueness"
        (Printf.sprintf "fresh xid %ld re-used on session %s" xid session)
    else Hashtbl.replace t.xids key ()
  end

(* ---- Results ---- *)

let violations t = List.rev t.violations_rev
let violation_count t = List.length t.violations_rev
let events_seen t = t.events

let pp_violation fmt v =
  Format.fprintf fmt "@[<v>invariant violation [%s] at t=%.6fs: %s@,"
    v.invariant v.time v.detail;
  Format.fprintf fmt "  event trace tail:@,";
  List.iter
    (fun (time, event) -> Format.fprintf fmt "    %.6fs  %s@," time event)
    v.trace;
  Format.fprintf fmt "@]"

let report t =
  match violations t with
  | [] -> ""
  | vs ->
      Format.asprintf "@[<v>%d invariant violation(s)@,%a@]" (List.length vs)
        (Format.pp_print_list pp_violation)
        vs
