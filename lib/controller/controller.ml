open Sdn_sim
open Sdn_net
open Sdn_openflow
module Session = Sdn_switch.Session

type release_strategy = [ `Pair | `Flow_mod_release ]

type counters = {
  pkt_ins_received : int;
  flow_mods_sent : int;
  pkt_outs_sent : int;
  switch_downs : int;
  resyncs : int;
  crashes : int;
  crash_lost_messages : int;
  reconcile_audits : int;
  reconcile_installs : int;
}

(* The flow-view key: the (match, priority) pair, the identity OpenFlow
   1.0 gives a flow entry, compared field-wise by [Of_match.equal] and
   hashed by [Of_match.hash]. *)
module View_key = struct
  type t = Of_match.t * int

  let equal (ma, pa) (mb, pb) = Int.equal pa pb && Of_match.equal ma mb
  let hash (m, p) = (Of_match.hash m * 31) + p

  (* Only reconciliation prints a key, to order its re-installs. *)
  let to_string (m, p) = Format.asprintf "%a/%d" Of_match.pp m p

  module Table = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

(* The switch session's state: the liveness tracker plus the handshake
   parameters remembered so they can be re-pushed verbatim on resync,
   and the controller's view of the entries it has installed — the
   basis of the post-rejoin flow-state reconciliation pass. The view is
   keyed structurally by {!View_key}, so recording an install costs a
   hash of the match, not a print of it. *)
type session = {
  tracker : Session.t;
  mutable enable_flow_buffer : Of_ext.backoff option;
  mutable miss_send_len : int option;
  flow_view : Of_flow_mod.t View_key.Table.t;
  mutable reconciling : bool;
  mutable reconcile_rounds : int;
  mutable needs_reconcile : bool;
      (* set when a crash severed this session; the next resync then
         runs the reconciliation pass. Plain outages never set it, so
         crash-free runs stay byte-identical. *)
}

type t = {
  engine : Engine.t;
  app : App.t;
  costs : Costs.t;
  check : Sdn_check.Check.t option;
  release_strategy : release_strategy;
  cpu : Cpu.t;
  mutable link : Bytes.t Link.t option;  (** the downlink to the switch *)
  mutable session : session option;
      (* set once, at the end of [create]: its callbacks need [t] *)
  mutable next_xid : int32;
  (* Sliding window of recently-arrived message bytes, for the GC
     pressure factor. *)
  recent : (float * int) Queue.t;
  mutable recent_bytes : int;
  mutable last_gc_pause : float;
  mutable pkt_ins_received : int;
  mutable flow_mods_sent : int;
  mutable pkt_outs_sent : int;
  mutable resyncs : int;
  (* Crash–restart fault injection: while [dead] the process neither
     receives nor emits; messages arriving meanwhile are lost. *)
  mutable dead : bool;
  mutable crashes : int;
  mutable crash_lost_messages : int;
  mutable reconcile_audits : int;
  mutable reconcile_installs : int;
  (* Reconciliation outcomes, newest first, for timeline rendering. *)
  mutable reconcile_events_rev : (float * string) list;
}

let fresh_xid t =
  let xid = t.next_xid in
  t.next_xid <-
    (if Int32.equal t.next_xid Int32.max_int then 0x4000_0000l
     else Int32.add t.next_xid 1l);
  xid

let the_session t =
  match t.session with
  | Some s -> s
  | None -> invalid_arg "Controller: session not initialised"

(* The checker's xid namespace for the controller->switch channel. *)
let channel_name = "ctl/sw-0"

let flow_mod_outputs_to (fm : Of_flow_mod.t) port =
  List.exists
    (function
      | Of_action.Output { port = p; _ } | Of_action.Enqueue { port = p; _ } ->
          p = port
      | _ -> false)
    fm.Of_flow_mod.actions

(* Mirror every FLOW_MOD this controller sends into its view of the
   switch's installed entries — the ground truth the post-crash
   reconciliation pass audits the switch against. Deletes prune the
   view with OpenFlow's own semantics (strict = exact match+priority,
   non-strict = subsumption, plus the out_port action filter). *)
let note_flow_mod_view t (fm : Of_flow_mod.t) =
  let s = the_session t in
  let key = (fm.Of_flow_mod.match_, fm.Of_flow_mod.priority) in
  let port_ok old =
    fm.Of_flow_mod.out_port = Of_wire.Port.none
    || flow_mod_outputs_to old fm.Of_flow_mod.out_port
  in
  match fm.Of_flow_mod.command with
  | Of_flow_mod.Add | Of_flow_mod.Modify | Of_flow_mod.Modify_strict ->
      View_key.Table.replace s.flow_view key
        (* Re-installs must not reference a buffer that is long gone. *)
        { fm with Of_flow_mod.buffer_id = Of_wire.no_buffer }
  | Of_flow_mod.Delete_strict -> (
      match View_key.Table.find_opt s.flow_view key with
      | Some old when port_ok old -> View_key.Table.remove s.flow_view key
      | Some _ | None -> ())
  | Of_flow_mod.Delete ->
      let doomed =
        (* A removal set: the verdict is independent of table order.
           lint: allow hashtbl-order *)
        View_key.Table.fold
          (fun key (old : Of_flow_mod.t) acc ->
            if
              Of_match.subsumes ~general:fm.Of_flow_mod.match_
                ~specific:old.Of_flow_mod.match_
              && port_ok old
            then key :: acc
            else acc)
          s.flow_view []
      in
      List.iter (View_key.Table.remove s.flow_view) doomed

(* [fresh] marks xids this controller allocated itself; replies that
   echo a request's xid (including the flow_mod + packet_out pair
   answering one PACKET_IN) are legitimately repeated and exempt from
   the uniqueness invariant. A dead (crashed) controller emits
   nothing: whatever in-flight work completes while it is down is
   silently discarded. *)
let send ?(fresh = false) t ~xid msg =
  if t.dead then ()
  else
    match t.link with
  | Some link ->
      let encoded = Of_codec.encode ~xid msg in
      (match t.check with
      | Some check ->
          Sdn_check.Check.note_emit check ~time:(Engine.now t.engine)
            ~session:channel_name ~fresh ~xid ~msg ~encoded
      | None -> ());
      Link.send link ~size:(Bytes.length encoded) encoded;
      (match msg with
      | Of_codec.Flow_mod fm ->
          t.flow_mods_sent <- t.flow_mods_sent + 1;
          note_flow_mod_view t fm
      | Of_codec.Packet_out _ -> t.pkt_outs_sent <- t.pkt_outs_sent + 1
      | Of_codec.Hello | Of_codec.Error_msg _ | Of_codec.Echo_request _
      | Of_codec.Echo_reply _ | Of_codec.Vendor _ | Of_codec.Features_request
      | Of_codec.Features_reply _ | Of_codec.Get_config_request
      | Of_codec.Get_config_reply _ | Of_codec.Set_config _
      | Of_codec.Packet_in _ | Of_codec.Flow_removed _
      | Of_codec.Port_status _
      | Of_codec.Stats_request _ | Of_codec.Stats_reply _
      | Of_codec.Barrier_request | Of_codec.Barrier_reply -> ())
  | None -> ()

let send_error t ~xid ~error_type ~code ~offending =
  let data = Bytes.sub offending 0 (min 64 (Bytes.length offending)) in
  let work = t.costs.Costs.parse_base_cost +. t.costs.Costs.encode_base_cost in
  Cpu.submit t.cpu ~work_s:work (fun () ->
      send t ~xid (Of_codec.Error_msg (Of_error.make ~error_type ~code ~data ())))

let do_handshake t ?enable_flow_buffer ?miss_send_len () =
  send ~fresh:true t ~xid:(fresh_xid t) Of_codec.Hello;
  send ~fresh:true t ~xid:(fresh_xid t) Of_codec.Features_request;
  (match miss_send_len with
  | Some n ->
      send ~fresh:true t ~xid:(fresh_xid t)
        (Of_codec.Set_config { Of_config.flags = 0; miss_send_len = n })
  | None -> ());
  match enable_flow_buffer with
  | Some backoff ->
      send ~fresh:true t ~xid:(fresh_xid t)
        (Of_codec.Vendor (Of_ext.Flow_buffer_enable backoff))
  | None -> ()

(* ---- Flow-state reconciliation (post-crash rejoin) ---- *)

(* Bounded audit -> repair -> re-audit loop: each round sends a
   wildcard FLOW stats request, re-installs view entries the switch no
   longer reports, waits for the flow_mod apply latency to land, and
   audits again. *)
let max_reconcile_rounds = 8
let reconcile_recheck_delay = 5e-3

let send_audit t =
  t.reconcile_audits <- t.reconcile_audits + 1;
  send ~fresh:true t ~xid:(fresh_xid t)
    (Of_codec.Stats_request
       (Of_stats.Flow_request
          {
            match_ = Of_match.wildcard_all;
            table_id = 0xff;
            out_port = Of_wire.Port.none;
          }))

(* State resync after an outage: replay the whole handshake with the
   parameters remembered from [start], so the switch gets its
   configuration — including the flow-buffer backoff policy — pushed
   again even if it rebooted into defaults. When the disconnect was a
   node crash, follow with the flow-state reconciliation audit. *)
let resync t =
  let s = the_session t in
  t.resyncs <- t.resyncs + 1;
  do_handshake t ?enable_flow_buffer:s.enable_flow_buffer
    ?miss_send_len:s.miss_send_len ();
  if s.needs_reconcile then begin
    s.needs_reconcile <- false;
    s.reconciling <- true;
    s.reconcile_rounds <- 0;
    send_audit t
  end

let create engine ~app ~costs ~rng ?check ?(release_strategy = `Pair)
    ?(echo_interval = 0.0) ?(echo_misses = 3) () =
  let noise = Costs.noise costs rng in
  let scale ~queue_len = Costs.penalty costs ~queue_len in
  let t =
    {
      engine;
      app;
      costs;
      check;
      release_strategy;
      cpu =
        Cpu.create engine ~name:"controller" ~cores:costs.Costs.cores
          ~service_scale:scale ~noise ();
      link = None;
      session = None;
      next_xid = 0x4000_0000l;
      recent = Queue.create ();
      recent_bytes = 0;
      last_gc_pause = neg_infinity;
      pkt_ins_received = 0;
      flow_mods_sent = 0;
      pkt_outs_sent = 0;
      resyncs = 0;
      dead = false;
      crashes = 0;
      crash_lost_messages = 0;
      reconcile_audits = 0;
      reconcile_installs = 0;
      reconcile_events_rev = [];
    }
  in
  let tracker =
    Session.create engine ?check ~name:channel_name
      ~config:{ Session.default_config with Session.echo_interval; echo_misses }
      ~fresh_xid:(fun () -> fresh_xid t)
      ~send_echo:(fun ~xid ->
        send ~fresh:true t ~xid (Of_codec.Echo_request Bytes.empty))
      ~on_down:(fun () -> ())
      ~on_restore:(fun ~downtime:_ -> resync t)
      ()
  in
  t.session <-
    Some
      {
        tracker;
        enable_flow_buffer = None;
        miss_send_len = None;
        flow_view = View_key.Table.create 64;
        reconciling = false;
        reconcile_rounds = 0;
        needs_reconcile = false;
      };
  t

(* The match installed for a flow: the 5-tuple when the headers give
   one (hash-indexable at the switch), the exact L2 match otherwise. *)
let match_for (ctx : App.context) =
  match ctx.App.flow_key with
  | Some key -> Of_match.of_flow_key key
  | None ->
      {
        Of_match.wildcard_all with
        Of_match.dl_src = Some ctx.App.headers.Packet.h_eth.Ethernet.src;
        dl_dst = Some ctx.App.headers.Packet.h_eth.Ethernet.dst;
        dl_type = Some ctx.App.headers.Packet.h_eth.Ethernet.ethertype;
      }

let respond t ~xid ~(pkt_in : Of_packet_in.t) (ctx : App.context)
    decision =
  let buffered = not (Int32.equal ctx.App.buffer_id Of_wire.no_buffer) in
  let pkt_out_for ~out_port =
    if buffered then
      Of_packet_out.release ~buffer_id:ctx.App.buffer_id ~out_port
    else
      Of_packet_out.full ~frame:pkt_in.Of_packet_in.data
        ~in_port:ctx.App.in_port ~out_port
  in
  let forward ~action ~out_port (f : App.forward) =
    let release_in_flow_mod =
      buffered && t.release_strategy = `Flow_mod_release
    in
    let flow_mod =
      Of_flow_mod.add ~idle_timeout:f.App.idle_timeout
        ~buffer_id:
          (if release_in_flow_mod then ctx.App.buffer_id else Of_wire.no_buffer)
        ~match_:(match_for ctx) ~actions:[ action ] ()
    in
    send t ~xid (Of_codec.Flow_mod flow_mod);
    if not release_in_flow_mod then begin
      let po = pkt_out_for ~out_port in
      send t ~xid
        (Of_codec.Packet_out { po with Of_packet_out.actions = [ action ] })
    end
  in
  match decision with
  | App.Flood ->
      send t ~xid
        (Of_codec.Packet_out (pkt_out_for ~out_port:Of_wire.Port.flood))
  | App.Forward f ->
      forward ~action:(Of_action.output f.App.out_port) ~out_port:f.App.out_port f
  | App.Forward_queued { App.f; queue_id } ->
      forward
        ~action:(Of_action.Enqueue { port = f.App.out_port; queue_id })
        ~out_port:f.App.out_port f

let reply_sizes t decision ~buffered ~data_len =
  (* Work for encoding the replies: base per message plus the bytes of
     frame data carried back (the expensive no-buffer PACKET_OUT). *)
  let data_out = if buffered then 0 else data_len in
  match decision with
  | App.Flood -> (1, data_out)
  | App.Forward _ | App.Forward_queued _ ->
      if buffered && t.release_strategy = `Flow_mod_release then (1, 0)
      else (2, data_out)

let note_arrival t ~bytes =
  let now = Engine.now t.engine in
  Queue.push (now, bytes) t.recent;
  t.recent_bytes <- t.recent_bytes + bytes;
  let horizon = now -. t.costs.Costs.gc_window in
  let rec prune () =
    match Queue.peek_opt t.recent with
    | Some (time, old_bytes) when time < horizon ->
        ignore (Queue.pop t.recent);
        t.recent_bytes <- t.recent_bytes - old_bytes;
        prune ()
    | Some _ | None -> ()
  in
  prune ();
  (* Sustained pressure triggers a stop-the-world collection: every
     core is stalled for the pause duration, so requests queued behind
     it see multi-millisecond delays. *)
  if
    t.recent_bytes > t.costs.Costs.gc_threshold_bytes
    && now -. t.last_gc_pause >= t.costs.Costs.gc_pause_min_gap
  then begin
    t.last_gc_pause <- now;
    for _core = 1 to Cpu.cores t.cpu do
      Cpu.submit t.cpu ~work_s:t.costs.Costs.gc_pause_duration (fun () -> ())
    done
  end;
  Costs.gc_factor t.costs ~window_bytes:t.recent_bytes

let handle_packet_in t ~xid (pkt_in : Of_packet_in.t) ~msg_bytes =
  t.pkt_ins_received <- t.pkt_ins_received + 1;
  let gc = note_arrival t ~bytes:msg_bytes in
  match Packet.peek_headers pkt_in.Of_packet_in.data with
  | Error _ -> ()
  | Ok headers ->
      let ctx =
        {
          App.in_port = pkt_in.Of_packet_in.in_port;
          headers;
          flow_key = Packet.flow_key_of_headers headers;
          buffer_id = pkt_in.Of_packet_in.buffer_id;
          total_len = pkt_in.Of_packet_in.total_len;
        }
      in
      let decision = t.app.App.decide ctx in
      let buffered = not (Int32.equal ctx.App.buffer_id Of_wire.no_buffer) in
      let replies, data_out =
        reply_sizes t decision ~buffered
          ~data_len:(Bytes.length pkt_in.Of_packet_in.data)
      in
      let work =
        gc
        *. (t.costs.Costs.parse_base_cost
           +. (t.costs.Costs.parse_per_byte *. float_of_int msg_bytes)
           +. t.costs.Costs.decision_cost
           +. (t.costs.Costs.encode_base_cost *. float_of_int replies)
           +. (t.costs.Costs.encode_per_byte *. float_of_int data_out))
      in
      Cpu.submit t.cpu ~work_s:work (fun () ->
          respond t ~xid ~pkt_in ctx decision)

(* One reconciliation round, run after the CPU paid for comparing the
   two tables. [stats] is what the switch reports; the view is what
   this controller believes it installed. *)
let reconcile_step t s stats =
  let now = Engine.now t.engine in
  let reported = View_key.Table.create ((2 * List.length stats) + 1) in
  List.iter
    (fun (st : Of_stats.flow_stats) ->
      View_key.Table.replace reported
        (st.Of_stats.match_, st.Of_stats.priority)
        ())
    stats;
  (* Adopt switch entries the view does not know: after a cold
     controller restart the view is empty and must be relearnt from
     the network rather than flushed out of it. *)
  List.iter
    (fun (st : Of_stats.flow_stats) ->
      let key = (st.Of_stats.match_, st.Of_stats.priority) in
      if not (View_key.Table.mem s.flow_view key) then
        View_key.Table.replace s.flow_view key
          (Of_flow_mod.add ~cookie:st.Of_stats.cookie
             ~idle_timeout:st.Of_stats.idle_timeout
             ~hard_timeout:st.Of_stats.hard_timeout
             ~priority:st.Of_stats.priority ~match_:st.Of_stats.match_
             ~actions:st.Of_stats.actions ()))
    stats;
  let missing =
    (* Sorted by printed key so re-installs go out in a deterministic
       order (the sort discharges the hashtbl-order rule). *)
    View_key.Table.fold
      (fun key fm acc ->
        if View_key.Table.mem reported key then acc
        else (View_key.to_string key, fm) :: acc)
      s.flow_view []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  match missing with
  | [] ->
      s.reconciling <- false;
      t.reconcile_events_rev <-
        (now, "reconciliation done (sw-0)") :: t.reconcile_events_rev;
      (match t.check with
      | Some check ->
          Sdn_check.Check.note_reconciliation check ~time:now
            ~session:channel_name ~agree:true ~detail:""
      | None -> ())
  | _ :: _ when s.reconcile_rounds >= max_reconcile_rounds ->
      s.reconciling <- false;
      t.reconcile_events_rev <-
        (now, "reconciliation gave up (sw-0)") :: t.reconcile_events_rev;
      (match t.check with
      | Some check ->
          Sdn_check.Check.note_reconciliation check ~time:now
            ~session:channel_name ~agree:false
            ~detail:
              (Printf.sprintf "%d entr%s still missing after %d audit round(s)"
                 (List.length missing)
                 (if List.length missing = 1 then "y" else "ies")
                 s.reconcile_rounds)
      | None -> ())
  | _ :: _ ->
      s.reconcile_rounds <- s.reconcile_rounds + 1;
      List.iter
        (fun (_, fm) ->
          t.reconcile_installs <- t.reconcile_installs + 1;
          send ~fresh:true t ~xid:(fresh_xid t) (Of_codec.Flow_mod fm))
        missing;
      (* Let the switch's flow_mod apply latency land, then audit
         again. *)
      ignore
        (Engine.schedule t.engine ~delay:reconcile_recheck_delay (fun () ->
             if s.reconciling && not t.dead then send_audit t))

let handle_flow_stats t stats =
  let s = the_session t in
  if s.reconciling then begin
    let work =
      t.costs.Costs.reconcile_per_entry_cost
      *. float_of_int (View_key.Table.length s.flow_view + List.length stats)
    in
    Cpu.submit t.cpu ~work_s:work (fun () ->
        if s.reconciling then reconcile_step t s stats)
  end

let handle_message t buf =
  if t.dead then
    (* The process is down: the frame is lost on the floor. *)
    t.crash_lost_messages <- t.crash_lost_messages + 1
  else
  match Of_codec.decode buf with
  | Error _ ->
      (* A buggy switch must learn its frame was rejected: answer with
         the OFPT_ERROR matching what was wrong with it. *)
      let error_type, code = Of_codec.error_reply buf in
      send_error t ~xid:(Of_codec.peek_xid buf) ~error_type ~code ~offending:buf
  | Ok (xid, msg) -> (
      let s = the_session t in
      (match msg with
      | Of_codec.Echo_reply _ -> Session.note_echo_reply s.tracker ~xid
      | _ -> Session.note_activity s.tracker);
      match msg with
      | Of_codec.Packet_in pkt_in ->
          handle_packet_in t ~xid pkt_in ~msg_bytes:(Bytes.length buf)
      | Of_codec.Echo_request payload ->
          let work = t.costs.Costs.parse_base_cost +. t.costs.Costs.encode_base_cost in
          Cpu.submit t.cpu ~work_s:work (fun () ->
              send t ~xid (Of_codec.Echo_reply payload))
      | Of_codec.Flow_removed fr ->
          (* The entry timed out at the switch; forget it so the
             reconciliation pass does not resurrect it. *)
          View_key.Table.remove s.flow_view
            (fr.Of_flow_removed.match_, fr.Of_flow_removed.priority)
      | Of_codec.Stats_reply (Of_stats.Flow_reply stats) ->
          handle_flow_stats t stats
      | Of_codec.Hello | Of_codec.Error_msg _ | Of_codec.Echo_reply _
      | Of_codec.Features_reply _ | Of_codec.Get_config_reply _
      | Of_codec.Port_status _ | Of_codec.Stats_reply _
      | Of_codec.Barrier_reply | Of_codec.Vendor _ ->
          (* Handshake replies, port and statistics reports and error
             reports land here; nothing to do for the reproduction's
             workloads. *)
          ()
      | Of_codec.Features_request | Of_codec.Get_config_request
      | Of_codec.Set_config _ | Of_codec.Packet_out _ | Of_codec.Flow_mod _
      | Of_codec.Stats_request _ | Of_codec.Barrier_request ->
          (* Switch-bound messages should not arrive at the controller;
             reject them explicitly. *)
          send_error t ~xid ~error_type:Of_error.Bad_request
            ~code:Of_error.Bad_request_code.bad_type ~offending:buf)

let start t ?enable_flow_buffer ?miss_send_len () =
  let s = the_session t in
  s.enable_flow_buffer <- enable_flow_buffer;
  s.miss_send_len <- miss_send_len;
  do_handshake t ?enable_flow_buffer ?miss_send_len ();
  Session.start s.tracker

let install_proactive t flow_mods =
  List.iter
    (fun fm ->
      let work =
        t.costs.Costs.encode_base_cost
        +. (t.costs.Costs.parse_base_cost /. 2.0)
      in
      Cpu.submit t.cpu ~work_s:work (fun () ->
          send ~fresh:true t ~xid:(fresh_xid t) (Of_codec.Flow_mod fm)))
    flow_mods

let set_switch_link t link = t.link <- Some link
let cpu t = t.cpu
let switch_downs t = Session.downs (the_session t).tracker

(* ---- Crash–restart fault injection ---- *)

let crash t ~mode =
  if not t.dead then begin
    t.dead <- true;
    t.crashes <- t.crashes + 1;
    let s = the_session t in
    s.reconciling <- false;
    s.needs_reconcile <- true;
    (match mode with
    | Faults.Cold ->
        (* Full state loss: the installed-entry view must be relearnt
           from the switch after boot. *)
        View_key.Table.reset s.flow_view
    | Faults.Warm -> ());
    Session.force_down s.tracker
  end

let restart t ~mode =
  if t.dead then begin
    t.dead <- false;
    let boot =
      match mode with
      | Faults.Warm -> t.costs.Costs.restart_warm_s
      | Faults.Cold -> t.costs.Costs.restart_cold_s
    in
    (* The whole process boots before any queued message is served:
       every core is busy for the boot duration. *)
    if boot > 0.0 then
      for _core = 1 to Cpu.cores t.cpu do
        Cpu.submit t.cpu ~work_s:boot (fun () -> ())
      done;
    Session.revive (the_session t).tracker
  end

(* The peer's TCP connection died under it (the switch process
   crashed): take the tracker down immediately instead of waiting for
   echo misses, and mark the session for reconciliation on rejoin. *)
let note_switch_disconnect t =
  let s = the_session t in
  s.reconciling <- false;
  s.needs_reconcile <- true;
  Session.note_disconnect s.tracker
let reconcile_events t = List.rev t.reconcile_events_rev

let counters t =
  {
    pkt_ins_received = t.pkt_ins_received;
    flow_mods_sent = t.flow_mods_sent;
    pkt_outs_sent = t.pkt_outs_sent;
    switch_downs = switch_downs t;
    resyncs = t.resyncs;
    crashes = t.crashes;
    crash_lost_messages = t.crash_lost_messages;
    reconcile_audits = t.reconcile_audits;
    reconcile_installs = t.reconcile_installs;
  }
