open Sdn_sim
open Sdn_net
open Sdn_openflow

type mechanism = No_buffer | Packet_granularity | Flow_granularity

let mechanism_to_string = function
  | No_buffer -> "no-buffer"
  | Packet_granularity -> "packet-granularity"
  | Flow_granularity -> "flow-granularity"

type config = {
  mechanism : mechanism;
  buffer_capacity : int;
  miss_send_len : int;
  resend_timeout : float;
  max_resends : int;
  flow_table_capacity : int;
  echo_interval : float;
  echo_misses : int;
  fail_mode : Session.fail_mode;
  overload_watermark : float;
  buf_policy : Buf_policy.kind option;
  shared_headroom : int;
}

let default_config =
  {
    mechanism = Packet_granularity;
    buffer_capacity = 256;
    miss_send_len = Of_packet_in.default_miss_send_len;
    resend_timeout = 50e-3;
    max_resends = 3;
    flow_table_capacity = 2048;
    (* Echo keepalive is opt-in: interval 0 keeps the control channel
       byte-identical to the pre-session behaviour. *)
    echo_interval = 0.0;
    echo_misses = 3;
    fail_mode = Session.Fail_secure;
    (* 1.0 disables the admission guard: the pool only sheds at true
       exhaustion, exactly the pre-guard behaviour. *)
    overload_watermark = 1.0;
    (* No shared-buffer policy: the pools keep their private static
       partitions and every run stays byte-identical to before the
       policy layer existed. *)
    buf_policy = None;
    shared_headroom = 0;
  }

(* A packet-granularity unit ages out after [unit_expiry]; a freed
   unit of either pool is reusable [reclaim_lag] later. *)
let unit_expiry = 1.0
let reclaim_lag = 3.2e-3

(* Re-requests back off exponentially with mild jitter, 50, ~100,
   ~200 ms, in the same shape as the session's reconnect probes. *)
let resend_jitter = 0.1

(* The period of the flow table's idle/hard timeout sweep. *)
let sweep_period = 1.0

(* The datapath id the features reply carries. It also prefixes the
   checker's ledger names ("sw-1/...") and sets the base of the xids
   this switch allocates. *)
let datapath_id = 1L
let name = Printf.sprintf "sw-%Lx" datapath_id
let pkt_pool_name = name ^ "/pkt_pool"
let flow_pool_name = name ^ "/flow_pool"
let shared_pool_name = name ^ "/shared"

type counters = {
  frames_forwarded : int;
  frames_dropped : int;
  pkt_ins_sent : int;
  pkt_in_resends : int;
  full_packet_fallbacks : int;
  standalone_frames : int;
  fail_secure_drops : int;
  crashes : int;
  crash_lost_frames : int;
  crash_lost_messages : int;
  crash_wiped_packets : int;
  overload_sheds : int;
}

type t = {
  engine : Engine.t;
  config : config;
  costs : Costs.t;
  check : Sdn_check.Check.t option;
  resend_rng : Rng.t;
  mutable mechanism : mechanism;
  mutable miss_send_len : int;
  kernel : Cpu.t;
  userspace : Cpu.t;
  bus : (unit -> unit) Link.t;  (** delivers transfer-completion thunks *)
  table : Flow_table.t;
  mutable pkt_pool : Packet_buffer.t option;
  mutable flow_pool : Flow_buffer.t option;
  mutable shared_pool : Buf_policy.t option;
  ports : Bytes.t Link.t Of_wire.Port.Table.t;
  port_schedulers : Egress_queue.t Of_wire.Port.Table.t;
  mutable controller_link : Bytes.t Link.t option;
  mutable next_xid : int32;
  mutable session : Session.t option;
  (* MAC -> port map learned only while fail-standalone forwarding is
     active; reset at each outage so stale locations don't survive. *)
  standalone_table : (Mac.t, int) Hashtbl.t;
  (* mutable counter fields *)
  mutable frames_forwarded : int;
  mutable frames_dropped : int;
  mutable pkt_ins_sent : int;
  mutable pkt_in_resends : int;
  mutable full_packet_fallbacks : int;
  mutable standalone_frames : int;
  mutable fail_secure_drops : int;
  (* Crash–restart fault injection: while [dead] the datapath neither
     forwards nor speaks OpenFlow; everything arriving is lost. *)
  mutable dead : bool;
  mutable crashes : int;
  mutable crash_lost_frames : int;
  mutable crash_lost_messages : int;
  mutable crash_wiped_packets : int;
  mutable overload_sheds : int;
}

let the_session t =
  match t.session with
  | Some s -> s
  | None -> invalid_arg "Switch: session not initialised"

let fresh_xid t =
  let xid = t.next_xid in
  t.next_xid <-
    (if Int32.equal t.next_xid Int32.max_int then 1l else Int32.add t.next_xid 1l);
  xid

(* The switch-wide shared buffer pool, created on first demand when a
   sharing policy is configured. The packet-buffer pool and every
   port scheduler's classes all draw on it. *)
let ensure_shared_pool t =
  match t.config.buf_policy with
  | None -> None
  | Some kind -> (
      match t.shared_pool with
      | Some _ as pool -> pool
      | None ->
          let pool =
            Buf_policy.create ?check:t.check
              ~headroom:t.config.shared_headroom ~kind
              ~name:shared_pool_name t.engine
          in
          t.shared_pool <- Some pool;
          Some pool)

(* Report a PACKET_IN emission decision to the invariant checker. Noted
   at the decision point (miss handler / resend timer), not at the
   asynchronous send, so expiry racing bus and CPU delays cannot
   produce false violations. *)
let note_pkt_in t ~pool ~id ~resend =
  match t.check with
  | Some check ->
      Sdn_check.Check.note_packet_in check ~time:(Engine.now t.engine) ~pool
        ~id ~resend
  | None -> ()

let ensure_pkt_pool t =
  match t.pkt_pool with
  | Some pool -> pool
  | None ->
      let policy =
        Option.map
          (fun pool ->
            Buf_policy.register pool ~name:"ingress"
              ~quota:t.config.buffer_capacity ~priority:0)
          (ensure_shared_pool t)
      in
      (* Under a sharing policy the physical slot array carries headroom
         beyond the static quota — the policy, not the array, is the
         admission limit. Static (and no policy) keeps the exact legacy
         geometry. *)
      let capacity =
        match t.config.buf_policy with
        | None | Some Buf_policy.Static -> t.config.buffer_capacity
        | Some _ ->
            Int.min 0xFFFF
              (t.config.buffer_capacity + t.config.shared_headroom)
      in
      let pool =
        Packet_buffer.create t.engine ?check:t.check ?policy
          ~pool_name:pkt_pool_name ~capacity ~expiry:unit_expiry ~reclaim_lag
          ()
      in
      t.pkt_pool <- Some pool;
      pool

(* The flow pool's resend callback needs the switch, so it is created
   lazily once [t] exists. *)
let rec ensure_flow_pool t =
  match t.flow_pool with
  | Some pool -> pool
  | None ->
      let pool =
        Flow_buffer.create t.engine ?check:t.check
          ~pool_name:flow_pool_name ~capacity:t.config.buffer_capacity
          ~reclaim_lag ~resend_timeout:t.config.resend_timeout
          ~resend_multiplier:Session.backoff_multiplier
          ~resend_cap:Session.backoff_cap ~resend_jitter ~rng:t.resend_rng
          ~max_resends:t.config.max_resends
          ~on_resend:(fun ~buffer_id ~key:_ ~first_frame ->
            t.pkt_in_resends <- t.pkt_in_resends + 1;
            note_pkt_in t ~pool:flow_pool_name ~id:buffer_id ~resend:true;
            (* The repeated request retraces the miss path: bus, then
               userspace, then the control link (Algorithm 1 line 13). *)
            send_pkt_in t ~buffer_id ~frame:first_frame ~in_port:1
              ~truncate:(Some t.miss_send_len) ~extra_cost:0.0)
          ()
      in
      t.flow_pool <- Some pool;
      pool

(* Transfer [bytes] across the half-duplex ASIC<->CPU bus, then run
   [k]. The bus is the contended resource behind the paper's Fig. 7. *)
and bus_transfer t ~bytes k =
  Link.send t.bus ~size:(bytes + t.costs.Costs.bus_descriptor_bytes) k

and send_to_controller ?xid ?fresh t msg =
  if t.dead then ()
    (* In-flight work completing while the process is down emits
       nothing; the message evaporates with the process. *)
  else
  match t.controller_link with
  | Some link ->
      (* Replies echo the request's transaction id, per the OpenFlow
         specification; switch-initiated messages get fresh ids. *)
      let fresh =
        match fresh with Some f -> f | None -> Option.is_none xid
      in
      let xid = match xid with Some x -> x | None -> fresh_xid t in
      let encoded = Of_codec.encode ~xid msg in
      (match t.check with
      | Some check ->
          Sdn_check.Check.note_emit check ~time:(Engine.now t.engine)
            ~session:name ~fresh ~xid ~msg ~encoded
      | None -> ());
      Link.send link ~size:(Bytes.length encoded) encoded
  | None -> ()

(* Generate a PACKET_IN: bus crossing (carrying [truncate] bytes of the
   frame, or all of it), then userspace processing, then the control
   link. *)
and send_pkt_in t ~buffer_id ~frame ~in_port ~truncate ~extra_cost =
  let carried =
    match truncate with
    | None -> Bytes.length frame
    | Some n -> min n (Bytes.length frame)
  in
  bus_transfer t ~bytes:carried (fun () ->
      let work =
        t.costs.Costs.upcall_base_cost
        +. (t.costs.Costs.upcall_per_byte *. float_of_int carried)
        +. extra_cost
      in
      Cpu.submit t.userspace ~work_s:work (fun () ->
          let pkt_in =
            Of_packet_in.make ~buffer_id ~in_port
              ~reason:Of_packet_in.No_match ~frame
              ~miss_send_len:truncate
          in
          t.pkt_ins_sent <- t.pkt_ins_sent + 1;
          send_to_controller t (Of_codec.Packet_in pkt_in)))

(* The unit pool of the active mechanism, once created. *)
let buffer_units t =
  match t.mechanism with
  | Flow_granularity -> Option.map Flow_buffer.units t.flow_pool
  | Packet_granularity -> Option.map Packet_buffer.units t.pkt_pool
  | No_buffer -> None

(* The units the active mechanism buffers in, as FEATURES_REPLY
   advertises them. *)
let n_buffers t =
  match t.mechanism with No_buffer -> 0 | _ -> t.config.buffer_capacity

(* The table stays empty unless a scenario gives a port a scheduler:
   test the size first, since every forwarded frame asks. *)
let scheduler_of t port =
  if Of_wire.Port.Table.length t.port_schedulers = 0 then None
  else Of_wire.Port.Table.find_opt t.port_schedulers port

let forward_frame t ~port ~queue_id frame =
  if t.dead then begin
    t.frames_dropped <- t.frames_dropped + 1;
    t.crash_lost_frames <- t.crash_lost_frames + 1
  end
  else
  match scheduler_of t port with
  | Some scheduler ->
      t.frames_forwarded <- t.frames_forwarded + 1;
      Egress_queue.send scheduler ~queue_id frame
  | None -> (
      match Of_wire.Port.Table.find t.ports port with
      | link ->
          t.frames_forwarded <- t.frames_forwarded + 1;
          Link.send link ~size:(Bytes.length frame) frame
      | exception Not_found -> t.frames_dropped <- t.frames_dropped + 1)

(* The special ports an output action can name: FLOOD and ALL mean
   every port but the ingress one, IN_PORT the ingress port, and
   CONTROLLER and NONE no data-plane port. *)
let floods port = port = Of_wire.Port.flood || port = Of_wire.Port.all
let off_datapath port = port = Of_wire.Port.controller || port = Of_wire.Port.none

(* Flood replication order must not depend on hash-table iteration:
   ascending port number. *)
let flood_ports t ~in_port =
  Of_wire.Port.Table.fold
    (fun p _ acc -> if p = in_port then acc else p :: acc)
    t.ports []
  |> List.sort Int.compare

let rec forwards t ~in_port = function
  | [] -> false
  | action :: rest -> (
      match action with
      | Of_action.Output { port; _ } | Of_action.Enqueue { port; _ } ->
          (if floods port then flood_ports t ~in_port <> []
           else not (off_datapath port))
          || forwards t ~in_port rest
      | _ -> forwards t ~in_port rest)

let forward_to t ~in_port ~queue_id port frame =
  if floods port then
    List.iter
      (fun p -> forward_frame t ~port:p ~queue_id frame)
      (flood_ports t ~in_port)
  else if not (off_datapath port) then
    forward_frame t
      ~port:(if port = Of_wire.Port.in_port then in_port else port)
      ~queue_id frame

(* Forward [frame] out of every port the output actions name, in
   action order. *)
let rec forward_all t ~in_port actions frame =
  match actions with
  | [] -> ()
  | action :: rest ->
      (match action with
      | Of_action.Output { port; _ } ->
          forward_to t ~in_port ~queue_id:None port frame
      | Of_action.Enqueue { port; queue_id } ->
          forward_to t ~in_port ~queue_id:(Some queue_id) port frame
      | _ -> ());
      forward_all t ~in_port rest frame

(* Egress of a frame that passed [Packet.validate]: one kernel job, which
   forwards the frame as it came in (no header is rewritten) out of each
   port its action list names. A list that forwards nowhere is dropped at
   once, with no job. Ports are resolved when the job runs. *)
let egress t ~in_port ~actions frame =
  if not (forwards t ~in_port actions) then
    t.frames_dropped <- t.frames_dropped + 1
  else
    Cpu.submit t.kernel ~work_s:t.costs.Costs.kernel_fwd_cost (fun () ->
        forward_all t ~in_port actions frame)

(* ---- Miss handling, per mechanism ---- *)

let miss_no_buffer t ~in_port frame =
  t.full_packet_fallbacks <- t.full_packet_fallbacks + 1;
  send_pkt_in t ~buffer_id:Of_wire.no_buffer ~frame ~in_port ~truncate:None
    ~extra_cost:0.0

(* Admission control: past the high watermark the switch sheds {e new}
   work instead of letting it crowd the pool — in-flight chains keep
   their units and their controller round-trips; fresh arrivals are
   dropped with a typed reason. Watermark 1.0 (the default) disables
   the guard entirely. *)
let overload_guard_active t =
  t.config.overload_watermark < 1.0
  &&
  match buffer_units t with
  | Some units ->
      float_of_int (Buffer_units.in_use units)
      >= t.config.overload_watermark
         *. float_of_int (Buffer_units.capacity units)
  | None -> false

let shed_overload t =
  t.overload_sheds <- t.overload_sheds + 1;
  t.frames_dropped <- t.frames_dropped + 1

let miss_packet_granularity t ~in_port frame =
  let pool = ensure_pkt_pool t in
  if overload_guard_active t then shed_overload t
  else
  match Packet_buffer.alloc pool ~frame with
  | None -> miss_no_buffer t ~in_port frame
  | Some buffer_id ->
      note_pkt_in t ~pool:pkt_pool_name ~id:buffer_id ~resend:false;
      send_pkt_in t ~buffer_id ~frame ~in_port
        ~truncate:(Some t.miss_send_len)
        ~extra_cost:t.costs.Costs.buffer_alloc_cost

let miss_flow_granularity t ~in_port frame =
  match Packet.peek_flow_key frame with
  | None ->
      (* Non-flow traffic (e.g. ARP) cannot share a buffer unit; it is
         handled like an unbuffered miss. *)
      miss_no_buffer t ~in_port frame
  | Some key -> (
      let pool = ensure_flow_pool t in
      if
        overload_guard_active t
        (* Appends ride an existing unit: admitting them favours
           completing in-flight chains over starting new ones. *)
        && not (Flow_buffer.has_chain pool ~key)
      then shed_overload t
      else
      match Flow_buffer.add pool ~key ~frame with
      | Flow_buffer.No_space -> miss_no_buffer t ~in_port frame
      | Flow_buffer.First buffer_id ->
          note_pkt_in t ~pool:flow_pool_name ~id:buffer_id ~resend:false;
          send_pkt_in t ~buffer_id ~frame ~in_port
            ~truncate:(Some t.miss_send_len)
            ~extra_cost:t.costs.Costs.flow_buffer_first_cost
      | Flow_buffer.Appended _ ->
          (* Algorithm 1 line 11: buffered silently, but the chaining
             work still occupies the datapath CPU, which is what delays
             PACKET_IN generation in the paper's Fig. 12(a). *)
          Cpu.submit t.kernel ~work_s:t.costs.Costs.flow_buffer_append_cost
            (fun () -> ()))

(* ---- Degraded miss handling while the controller session is down ---- *)

(* Fail-standalone (OpenFlow 1.0 §6.4): the switch keeps the data plane
   alive on its own with an internal L2 learning path — learn the source
   location, forward to the learned destination port or flood. Installed
   rules keep matching in the fast path; only misses come through here. *)
let miss_standalone t ~in_port frame =
  t.standalone_frames <- t.standalone_frames + 1;
  let eth = Ethernet.read frame 0 in
  Hashtbl.replace t.standalone_table eth.Ethernet.src in_port;
  let actions =
    if Mac.is_broadcast eth.Ethernet.dst then
      [ Of_action.output Of_wire.Port.flood ]
    else begin
      match Hashtbl.find_opt t.standalone_table eth.Ethernet.dst with
      | Some p when p <> in_port -> [ Of_action.output p ]
      | Some _ -> []
      | None -> [ Of_action.output Of_wire.Port.flood ]
    end
  in
  egress t ~in_port ~actions frame

(* Fail-secure (OpenFlow 1.0 §6.4): never forward without controller
   authorization. Flow-granularity chains keep absorbing miss-match
   packets into the (frozen) pool so nothing already accepted is lost;
   everything else is dropped until the session recovers. *)
let miss_fail_secure t ~in_port:_ frame =
  let drop () =
    t.fail_secure_drops <- t.fail_secure_drops + 1;
    t.frames_dropped <- t.frames_dropped + 1
  in
  match t.mechanism with
  | Flow_granularity -> (
      match Packet.peek_flow_key frame with
      | None -> drop ()
      | Some key -> (
          let pool = ensure_flow_pool t in
          Flow_buffer.freeze pool;
          match Flow_buffer.add pool ~key ~frame with
          | Flow_buffer.No_space -> drop ()
          | Flow_buffer.First _ | Flow_buffer.Appended _ -> ()))
  | Packet_granularity | No_buffer -> drop ()

(* The miss paths read the validated frame in place: the flow key, or
   for standalone forwarding the Ethernet header. *)
let handle_miss t ~in_port frame =
  if Session.is_down (the_session t) then
    (* Controller unreachable: degrade per the configured fail mode
       instead of emitting PACKET_INs into a dead channel. *)
    Cpu.submit t.kernel ~work_s:t.costs.Costs.kernel_upcall_cost (fun () ->
        match t.config.fail_mode with
        | Session.Fail_standalone -> miss_standalone t ~in_port frame
        | Session.Fail_secure -> miss_fail_secure t ~in_port frame)
  else
    (* The kernel side of the upcall (packet copy out of the datapath)
       runs before the transfer crosses the bus. *)
    Cpu.submit t.kernel ~work_s:t.costs.Costs.kernel_upcall_cost (fun () ->
        match t.mechanism with
        | No_buffer -> miss_no_buffer t ~in_port frame
        | Packet_granularity -> miss_packet_granularity t ~in_port frame
        | Flow_granularity -> miss_flow_granularity t ~in_port frame)

let handle_frame t ~in_port frame =
  if t.dead then begin
    (* A crashed datapath is a black hole: the frame is dropped at
       once, with no CPU work burned. *)
    t.frames_dropped <- t.frames_dropped + 1;
    t.crash_lost_frames <- t.crash_lost_frames + 1
  end
  else
  Cpu.submit t.kernel ~work_s:t.costs.Costs.kernel_rx_cost (fun () ->
      match Packet.validate frame with
      | Error _ -> t.frames_dropped <- t.frames_dropped + 1
      | Ok () -> (
          match Flow_table.lookup_frame t.table ~in_port frame with
          | Some entry ->
              Flow_entry.touch entry ~now:(Engine.now t.engine)
                ~bytes:(Bytes.length frame);
              egress t ~in_port ~actions:entry.Flow_entry.actions frame
          | None -> handle_miss t ~in_port frame))

(* ---- Controller-to-switch message handling ---- *)

let send_error ?xid t ~error_type ~code ~offending =
  let data = Bytes.sub offending 0 (min 64 (Bytes.length offending)) in
  send_to_controller ?xid t
    (Of_codec.Error_msg (Of_error.make ~error_type ~code ~data ()))

(* Release buffered frames to the datapath: one descriptor-sized bus
   crossing, then one kernel job per frame, in order, each forwarding
   its frame. Only frames that passed [Packet.validate] at ingress are
   buffered, so none is parsed again. A packet-granularity unit is a
   one-frame chain; a flow-granularity unit releases its whole chain
   (Algorithm 2 lines 4-10). *)
let release_chain t ~actions frames =
  bus_transfer t ~bytes:0 (fun () ->
      let rec forward_next = function
        | [] -> ()
        | frame :: rest ->
            Cpu.submit t.kernel
              ~work_s:t.costs.Costs.release_per_packet_cost (fun () ->
                egress t ~in_port:0 ~actions frame;
                forward_next rest)
      in
      forward_next frames)

let apply_buffer_release t ~buffer_id ~actions ~offending =
  if Int32.equal buffer_id Of_wire.no_buffer then ()
  else begin
    match t.mechanism with
    | Packet_granularity | No_buffer -> (
        match t.pkt_pool with
        | None ->
            send_error t ~error_type:Of_error.Bad_request
              ~code:Of_error.Bad_request_code.buffer_empty ~offending
        | Some pool -> (
            match Packet_buffer.take pool buffer_id with
            | Packet_buffer.Taken frame -> release_chain t ~actions [ frame ]
            | Packet_buffer.Unknown_id ->
                send_error t ~error_type:Of_error.Bad_request
                  ~code:Of_error.Bad_request_code.buffer_unknown ~offending))
    | Flow_granularity -> (
        match t.flow_pool with
        | None ->
            send_error t ~error_type:Of_error.Bad_request
              ~code:Of_error.Bad_request_code.buffer_empty ~offending
        | Some pool -> (
            match Flow_buffer.take_all pool buffer_id with
            | Flow_buffer.Taken frames -> release_chain t ~actions frames
            | Flow_buffer.Unknown_id ->
                send_error t ~error_type:Of_error.Bad_request
                  ~code:Of_error.Bad_request_code.buffer_unknown ~offending))
  end

(* The switch installs rules, but deletes none on request, rewrites no
   header and sends no FLOW_REMOVED. It refuses a request for any of
   these at once, with the OFPT_ERROR OpenFlow 1.0 names for it. *)
let flow_mod_refusal (fm : Of_flow_mod.t) =
  match fm.Of_flow_mod.command with
  | Of_flow_mod.Delete | Of_flow_mod.Delete_strict ->
      Some (Of_error.Flow_mod_failed, Of_error.Flow_mod_failed_code.bad_command)
  | Of_flow_mod.Add | Of_flow_mod.Modify | Of_flow_mod.Modify_strict ->
      if Of_action.rewrites fm.Of_flow_mod.actions then
        Some (Of_error.Bad_action, Of_error.Bad_action_code.bad_type)
      else if fm.Of_flow_mod.send_flow_rem then
        Some (Of_error.Flow_mod_failed, Of_error.Flow_mod_failed_code.eperm)
      else None

let handle_flow_mod t ~xid (fm : Of_flow_mod.t) ~offending =
  match flow_mod_refusal fm with
  | Some (error_type, code) -> send_error ~xid t ~error_type ~code ~offending
  | None ->
      Cpu.submit t.userspace ~work_s:t.costs.Costs.flow_mod_install_cost
        (fun () ->
          (* The rule takes effect only after the datapath programming
             latency; packets arriving in between still miss. The
             buffered packet (if the FLOW_MOD names one) is released
             immediately, as OVS does. *)
          ignore
            (Engine.schedule t.engine
               ~delay:t.costs.Costs.flow_mod_apply_latency (fun () ->
                 ignore
                   (Flow_table.insert t.table
                      (Flow_entry.of_flow_mod fm ~now:(Engine.now t.engine)))));
          apply_buffer_release t ~buffer_id:fm.Of_flow_mod.buffer_id
            ~actions:fm.Of_flow_mod.actions ~offending)

let handle_packet_out t ~xid (po : Of_packet_out.t) ~offending =
  if Of_action.rewrites po.Of_packet_out.actions then
    send_error ~xid t ~error_type:Of_error.Bad_action
      ~code:Of_error.Bad_action_code.bad_type ~offending
  else
  let data_len = Bytes.length po.Of_packet_out.data in
  let work =
    t.costs.Costs.pkt_out_base_cost
    +. (t.costs.Costs.pkt_out_per_byte *. float_of_int data_len)
  in
  Cpu.submit t.userspace ~work_s:work (fun () ->
      if Int32.equal po.Of_packet_out.buffer_id Of_wire.no_buffer then begin
        if data_len = 0 then
          send_error t ~error_type:Of_error.Bad_request
            ~code:Of_error.Bad_request_code.bad_len ~offending
        else begin
          (* The full frame must cross the bus back to the datapath. *)
          let frame = po.Of_packet_out.data in
          bus_transfer t ~bytes:data_len (fun () ->
              match Packet.validate frame with
              | Error _ -> ()
              | Ok () ->
                  egress t ~in_port:po.Of_packet_out.in_port
                    ~actions:po.Of_packet_out.actions frame)
        end
      end
      else
        apply_buffer_release t ~buffer_id:po.Of_packet_out.buffer_id
          ~actions:po.Of_packet_out.actions ~offending)

let buffer_stats t =
  let units_in_use, units_total =
    match buffer_units t with
    | Some units -> (Buffer_units.in_use units, Buffer_units.capacity units)
    | None -> (0, n_buffers t)
  in
  match (t.mechanism, t.flow_pool) with
  | Flow_granularity, Some pool ->
      {
        Of_ext.units_in_use;
        units_total;
        flows_buffered = Flow_buffer.flows_buffered pool;
        packets_buffered = Flow_buffer.packets_buffered pool;
        resends = Flow_buffer.resends pool;
      }
  | (Flow_granularity | Packet_granularity | No_buffer), _ ->
      (* A packet-granularity unit holds one packet. *)
      {
        Of_ext.units_in_use;
        units_total;
        flows_buffered = 0;
        packets_buffered = units_in_use;
        resends = 0;
      }

let handle_vendor t ~xid (v : Of_ext.t) ~offending =
  match v with
  | Of_ext.Flow_buffer_enable b ->
      (* The controller dictates the re-request policy; it applies to
         the live pool from the next timer arming. A switch built
         without buffer units, or a policy no timer can arm (the wire
         carries signed milliseconds), refuses the enable whole,
         keeping its mechanism and previous policy. *)
      if
        t.config.buffer_capacity > 0
        && Flow_buffer.valid_backoff ~resend_timeout:b.Of_ext.timeout
             ~resend_multiplier:b.Of_ext.multiplier ~resend_cap:b.Of_ext.cap
      then begin
        t.mechanism <- Flow_granularity;
        Flow_buffer.set_backoff (ensure_flow_pool t)
          ~resend_timeout:b.Of_ext.timeout
          ~resend_multiplier:b.Of_ext.multiplier ~resend_cap:b.Of_ext.cap
          ~max_resends:b.Of_ext.max_resends
      end
      else
        send_error ~xid t ~error_type:Of_error.Bad_request
          ~code:Of_error.Bad_request_code.eperm ~offending
  | Of_ext.Flow_buffer_disable ->
      (* Without buffer units there is no packet pool to fall back on:
         the switch stays no-buffer. *)
      if t.config.buffer_capacity > 0 then t.mechanism <- Packet_granularity
  | Of_ext.Flow_buffer_stats_request ->
      send_to_controller ~xid t
        (Of_codec.Vendor (Of_ext.Flow_buffer_stats_reply (buffer_stats t)))
  | Of_ext.Flow_buffer_stats_reply _ -> ()

(* A port's description: a locally administered address from all 16
   bits of the port number, so ports up to 255 keep the 02:00:00:00:00:nn
   they always had. *)
let phy_port port =
  {
    Of_features.port_no = port;
    hw_addr = Mac.of_octets 0x02 0 0 0 ((port lsr 8) land 0xFF) (port land 0xFF);
    name = Printf.sprintf "eth%d" port;
  }

let features_reply t =
  let ports =
    (* Port list goes on the wire: ascending port number, not
       hash-table iteration order. *)
    Of_wire.Port.Table.fold (fun port _ acc -> phy_port port :: acc) t.ports []
    |> List.sort (fun (a : Of_features.phy_port) b ->
           Int.compare a.Of_features.port_no b.Of_features.port_no)
  in
  Of_features.make ~datapath_id ~n_buffers:(n_buffers t) ~n_tables:1 ~ports

(* The flow table is reported whole or not at all, as the audit and a
   monitor poll ask for it; DESC and PORT requests are refused. *)
let handle_stats_request t ~xid (req : Of_stats.request) ~offending =
  let reply r = send_to_controller ~xid t (Of_codec.Stats_reply r) in
  match req with
  | Of_stats.Desc_request | Of_stats.Port_request _ ->
      send_error ~xid t ~error_type:Of_error.Bad_request
        ~code:Of_error.Bad_request_code.bad_stat ~offending
  | Of_stats.Flow_request { match_; table_id; out_port }
  | Of_stats.Aggregate_request { match_; table_id; out_port }
    when not (Of_match.equal match_ Of_match.wildcard_all
              && out_port = Of_wire.Port.none && (table_id = 0xff || table_id = 0)) ->
      send_error ~xid t ~error_type:Of_error.Bad_request
        ~code:Of_error.Bad_request_code.eperm ~offending
  | Of_stats.Flow_request _ ->
      (* A big table cannot be reported in one frame (16-bit wire
         length, no multipart continuation in this codec): answer with
         the prefix that fits rather than framing garbage. *)
      reply
        (Of_stats.Flow_reply
           (Of_stats.truncate_flow_entries
              (Flow_table.to_stats t.table ~now:(Engine.now t.engine))))
  | Of_stats.Aggregate_request _ ->
      let entries = Flow_table.entries t.table in
      let sum f =
        List.fold_left (fun n e -> Int64.add n (Int64.of_int (f e))) 0L entries
      in
      reply
        (Of_stats.Aggregate_reply
           { packet_count = sum (fun e -> e.Flow_entry.packets);
             byte_count = sum (fun e -> e.Flow_entry.bytes);
             flow_count = Int32.of_int (List.length entries) })

let handle_of_message t buf =
  if t.dead then
    (* The OpenFlow agent is down with the rest of the process. *)
    t.crash_lost_messages <- t.crash_lost_messages + 1
  else
  match Of_codec.decode buf with
  | Error _ ->
      (* A buggy controller must learn its frame was rejected. *)
      let error_type, code = Of_codec.error_reply buf in
      send_error ~xid:(Of_codec.peek_xid buf) t ~error_type ~code
        ~offending:buf
  | Ok (xid, msg) -> (
      (* Any well-formed message is proof of liveness; echo replies
         additionally settle an outstanding keepalive or reconnect
         probe by xid. A message arriving while Down restores the
         session (and resumes frozen chains) before being handled. *)
      (match msg with
      | Of_codec.Echo_reply _ -> Session.note_echo_reply (the_session t) ~xid
      | _ -> Session.note_activity (the_session t));
      match msg with
      | Of_codec.Flow_mod fm -> handle_flow_mod t ~xid fm ~offending:buf
      | Of_codec.Packet_out po -> handle_packet_out t ~xid po ~offending:buf
      | Of_codec.Hello -> send_to_controller t Of_codec.Hello
      | Of_codec.Echo_request payload ->
          send_to_controller ~xid t (Of_codec.Echo_reply payload)
      | Of_codec.Features_request ->
          send_to_controller ~xid t (Of_codec.Features_reply (features_reply t))
      | Of_codec.Barrier_request ->
          send_to_controller ~xid t Of_codec.Barrier_reply
      | Of_codec.Vendor v -> handle_vendor t ~xid v ~offending:buf
      | Of_codec.Stats_request r -> handle_stats_request t ~xid r ~offending:buf
      | Of_codec.Get_config_request ->
          send_to_controller ~xid t
            (Of_codec.Get_config_reply
               { Of_config.flags = 0; miss_send_len = t.miss_send_len })
      | Of_codec.Set_config c ->
          (* The controller configures how much of a buffered packet
             rides in the PACKET_IN (paper, Section IV). *)
          t.miss_send_len <- max 0 (min 0xFFFF c.Of_config.miss_send_len)
      | Of_codec.Error_msg _ | Of_codec.Echo_reply _ | Of_codec.Features_reply _
      | Of_codec.Get_config_reply _ | Of_codec.Packet_in _
      | Of_codec.Flow_removed _ | Of_codec.Port_status _
      | Of_codec.Stats_reply _ | Of_codec.Barrier_reply ->
          (* Controller-bound messages and error reports are ignored;
             echo replies were consumed by the session above. *)
          ())

(* Session-down: stop burning re-request budgets into a dead link (the
   frozen chains survive for the post-reconnect resync), and start
   standalone forwarding from an empty learning table. *)
let on_session_down t =
  (match t.mechanism with
  | Flow_granularity -> Flow_buffer.freeze (ensure_flow_pool t)
  | Packet_granularity | No_buffer -> ());
  Hashtbl.reset t.standalone_table

(* Session restored: thaw the pool — chains that still fit their resend
   budget re-enter the backoff machinery and re-request; the rest
   expire. *)
let on_session_restore t = Option.iter Flow_buffer.resume t.flow_pool

(* ---- Crash–restart fault injection ---- *)

(* A switch built without buffer units is no-buffer whatever mechanism
   it was configured with. *)
let initial_mechanism config =
  if config.buffer_capacity = 0 then No_buffer else config.mechanism

let crash t ~mode =
  if not t.dead then begin
    t.dead <- true;
    t.crashes <- t.crashes + 1;
    (* The process dies with all its timers; Session.force_down fires
       on_down from live states, which freezes a flow-granularity pool
       and resets the standalone table. *)
    Session.force_down (the_session t);
    Hashtbl.reset t.standalone_table;
    match mode with
    | Faults.Warm ->
        (* Soft state survives the reboot: buffered chains freeze (if
           the session was already down they may not be yet) and replay
           through the normal resume path on reconnection. *)
        Option.iter Flow_buffer.freeze t.flow_pool
    | Faults.Cold ->
        (* Full state loss. The pools report every held chain as
           expired to the conservation ledger, then the wipe invariant
           confirms nothing survived. Flow table, learned MACs and the
           vendor-negotiated configuration all reset to power-on
           defaults; the controller's resync handshake re-pushes them. *)
        let pkt_wiped =
          match t.pkt_pool with Some pool -> Packet_buffer.wipe pool | None -> 0
        in
        let flow_wiped =
          match t.flow_pool with Some pool -> Flow_buffer.wipe pool | None -> 0
        in
        t.crash_wiped_packets <- t.crash_wiped_packets + pkt_wiped + flow_wiped;
        ignore (Flow_table.clear t.table);
        t.mechanism <- initial_mechanism t.config;
        t.miss_send_len <- t.config.miss_send_len
  end

let restart t =
  if t.dead then begin
    t.dead <- false;
    (* Rejoin the controller through the ordinary reconnect machinery:
       the first answered probe restores the session, resumes any
       frozen chains and triggers the controller's resync (and, after
       a crash, its reconciliation pass). *)
    Session.revive (the_session t)
  end

let create engine ?check ~config ~costs ~rng () =
  let noise = Costs.noise costs rng in
  let amortize ~queue_len = Costs.amortization costs ~queue_len in
  let t =
    {
      engine;
      config;
      costs;
      check;
      (* A dedicated stream for re-request jitter, so backoff draws do
         not perturb the service-noise sequence. *)
      resend_rng = Rng.split rng;
      mechanism = initial_mechanism config;
      miss_send_len = config.miss_send_len;
      kernel =
        Cpu.create engine ~name:"switch-kernel" ~cores:costs.Costs.kernel_cores
          ~noise ();
      userspace =
        Cpu.create engine ~name:"switch-userspace"
          ~cores:costs.Costs.userspace_cores ~service_scale:amortize ~noise ();
      bus =
        Link.create engine ~name:"asic-cpu-bus"
          ~bandwidth_bps:costs.Costs.bus_bandwidth_bps ~propagation_s:0.0
          ~receiver:(fun k -> k ())
          ();
      table =
        Flow_table.create ?check ~name:(name ^ "/table")
          ~clock:(fun () -> Engine.now engine)
          ~capacity:config.flow_table_capacity ();
      pkt_pool = None;
      flow_pool = None;
      shared_pool = None;
      ports = Of_wire.Port.Table.create 8;
      port_schedulers = Of_wire.Port.Table.create 8;
      controller_link = None;
      next_xid = Int32.add 1l (Int32.shift_left (Int64.to_int32 datapath_id) 20);
      frames_forwarded = 0;
      frames_dropped = 0;
      pkt_ins_sent = 0;
      pkt_in_resends = 0;
      full_packet_fallbacks = 0;
      standalone_frames = 0;
      fail_secure_drops = 0;
      dead = false;
      crashes = 0;
      crash_lost_frames = 0;
      crash_lost_messages = 0;
      crash_wiped_packets = 0;
      overload_sheds = 0;
      session = None;
      standalone_table = Hashtbl.create 16;
    }
  in
  (* The reconnect probes start at the re-request timeout and share its
     backoff: both are "retry into a possibly-dead control channel"
     timers. *)
  t.session <-
    Some
      (Session.create engine ?check ~name
         ~config:
           {
             Session.echo_interval = config.echo_interval;
             echo_misses = config.echo_misses;
             reconnect_delay = config.resend_timeout;
           }
         ~fresh_xid:(fun () -> fresh_xid t)
         ~send_echo:(fun ~xid ->
           (* The session allocated this xid itself: it counts as fresh
              for the uniqueness invariant. *)
           send_to_controller ~xid ~fresh:true t
             (Of_codec.Echo_request Bytes.empty))
         ~on_down:(fun () -> on_session_down t)
         ~on_restore:(fun ~downtime:_ -> on_session_restore t)
         ());
  (* Pre-create the pool matching the configured mechanism so occupancy
     statistics start at time zero. *)
  (match t.mechanism with
  | Packet_granularity -> ignore (ensure_pkt_pool t)
  | Flow_granularity -> ignore (ensure_flow_pool t)
  | No_buffer -> ());
  t

let start t =
  let rec sweep () =
    ignore (Flow_table.expire t.table ~now:(Engine.now t.engine));
    ignore (Engine.schedule t.engine ~delay:sweep_period sweep)
  in
  ignore (Engine.schedule t.engine ~delay:sweep_period sweep);
  Session.start (the_session t)

let mechanism t = t.mechanism
let miss_send_len t = t.miss_send_len
let set_port t ~port link =
  if port < 1 || port > Of_wire.Port.max_physical then
    invalid_arg
      (Printf.sprintf "Switch.set_port: port %d outside 1..%d" port
         Of_wire.Port.max_physical);
  Of_wire.Port.Table.replace t.ports port link

let set_port_scheduler t ~port ~policy ~queues =
  match Of_wire.Port.Table.find_opt t.ports port with
  | None -> invalid_arg "Switch.set_port_scheduler: no such port"
  | Some link ->
      let shared =
        match ensure_shared_pool t with
        | None -> None
        | Some pool -> Some (pool, Printf.sprintf "port%d" port)
      in
      Of_wire.Port.Table.replace t.port_schedulers port
        (Egress_queue.create ?shared t.engine ~link ~policy ~queues)

let port_scheduler t ~port = scheduler_of t port
let shared_pool t = t.shared_pool
let flow_pool t = t.flow_pool

let egress_misrouted t =
  (* Sum is order-independent, but fold-to-list + sort keeps the
     traversal deterministic (the sort discharges the hashtbl-order
     rule). *)
  Of_wire.Port.Table.fold
    (fun port q acc -> (port, Egress_queue.misrouted q) :: acc)
    t.port_schedulers []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.fold_left (fun acc (_, m) -> acc + m) 0
let set_controller_link t link = t.controller_link <- Some link
let kernel_cpu t = t.kernel
let userspace_cpu t = t.userspace
let flow_table t = t.table

let counters t =
  {
    frames_forwarded = t.frames_forwarded;
    frames_dropped = t.frames_dropped;
    pkt_ins_sent = t.pkt_ins_sent;
    pkt_in_resends = t.pkt_in_resends;
    full_packet_fallbacks = t.full_packet_fallbacks;
    standalone_frames = t.standalone_frames;
    fail_secure_drops = t.fail_secure_drops;
    crashes = t.crashes;
    crash_lost_frames = t.crash_lost_frames;
    crash_lost_messages = t.crash_lost_messages;
    crash_wiped_packets = t.crash_wiped_packets;
    overload_sheds = t.overload_sheds;
  }

let session t = the_session t

let cpu_busy_core_seconds t =
  Cpu.busy_core_seconds t.kernel +. Cpu.busy_core_seconds t.userspace
