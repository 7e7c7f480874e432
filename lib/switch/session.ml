open Sdn_sim

type state = Handshaking | Up | Probing | Down | Reconnecting

let state_to_string = function
  | Handshaking -> "handshaking"
  | Up -> "up"
  | Probing -> "probing"
  | Down -> "down"
  | Reconnecting -> "reconnecting"

type fail_mode = Fail_secure | Fail_standalone

let fail_mode_to_string = function
  | Fail_secure -> "fail-secure"
  | Fail_standalone -> "fail-standalone"

let fail_mode_of_string = function
  | "secure" | "fail-secure" | "fail_secure" -> Ok Fail_secure
  | "standalone" | "fail-standalone" | "fail_standalone" -> Ok Fail_standalone
  | s -> Error (Printf.sprintf "Session.fail_mode_of_string: %S" s)

type config = {
  echo_interval : float;
  echo_misses : int;
  reconnect_delay : float;
}

let default_config =
  { echo_interval = 0.0; echo_misses = 3; reconnect_delay = 50e-3 }

let backoff_multiplier = 2.0
let backoff_cap = 400e-3

type t = {
  engine : Engine.t;
  check : Sdn_check.Check.t option;
  name : string;
  config : config;
  fresh_xid : unit -> int32;
  send_echo : xid:int32 -> unit;
  on_down : unit -> unit;
  on_restore : downtime:float -> unit;
  (* Keepalive echoes awaiting a reply, xid -> send time. Distinct from
     [probes] so that a late reply to a pre-outage keepalive counts as a
     false positive while a reply to a reconnect probe does not. *)
  pending : (int32, float) Hashtbl.t;
  probes : (int32, float) Hashtbl.t;
  mutable state : state;
  (* The current outage began with an observed connection death (crash
     or TCP reset) rather than inferred echo loss: traffic that was in
     flight on the old connection proves nothing about the peer's new
     incarnation, so while this is set only an answered reconnect
     probe may restore the session. *)
  mutable conn_dead : bool;
  mutable tick_handle : Engine.handle option;
  mutable probe_handle : Engine.handle option;
  mutable down_since : float;
  mutable transitions_rev : (float * state) list;
  mutable downs : int;
  mutable false_positives : int;
  mutable echoes_sent : int;
  mutable probes_sent : int;
  mutable replies_matched : int;
  mutable replies_unmatched : int;
  mutable downtime_closed : float;
  echo_rtts : Stats.t;
  recovery_times : Stats.t;
}

let create engine ?check ?(name = "session") ~config ~fresh_xid ~send_echo
    ~on_down ~on_restore () =
  if config.echo_misses < 1 then
    invalid_arg "Session.create: echo_misses below 1";
  {
    engine;
    check;
    name;
    config;
    fresh_xid;
    send_echo;
    on_down;
    on_restore;
    pending = Hashtbl.create 8;
    probes = Hashtbl.create 8;
    state = Handshaking;
    conn_dead = false;
    tick_handle = None;
    probe_handle = None;
    down_since = 0.0;
    transitions_rev = [ (Engine.now engine, Handshaking) ];
    downs = 0;
    false_positives = 0;
    echoes_sent = 0;
    probes_sent = 0;
    replies_matched = 0;
    replies_unmatched = 0;
    downtime_closed = 0.0;
    echo_rtts = Stats.create ();
    recovery_times = Stats.create ();
  }

let enabled t = t.config.echo_interval > 0.0
let state t = t.state
let is_down t = match t.state with Down | Reconnecting -> true | _ -> false

let set_state t s =
  if t.state <> s then begin
    (match t.check with
    | Some check ->
        Sdn_check.Check.note_session_transition check
          ~time:(Engine.now t.engine) ~session:t.name
          ~from_:(state_to_string t.state) ~to_:(state_to_string s)
    | None -> ());
    t.state <- s;
    t.transitions_rev <- (Engine.now t.engine, s) :: t.transitions_rev
  end

let reconnect_delay t ~attempt =
  Float.min backoff_cap
    (t.config.reconnect_delay *. (backoff_multiplier ** float_of_int attempt))

(* The keepalive loop: every [echo_interval], check how many echoes are
   still unanswered, then send a fresh one. Reaching [echo_misses]
   unanswered echoes declares the session Down. *)
let rec tick t =
  t.tick_handle <- None;
  match t.state with
  | Down | Reconnecting -> ()
  | Handshaking ->
      (* No traffic to probe yet; wait for the handshake to land. *)
      arm_tick t
  | Up | Probing ->
      if Hashtbl.length t.pending >= t.config.echo_misses then go_down t
      else begin
        if Hashtbl.length t.pending > 0 && t.state = Up then
          set_state t Probing;
        let xid = t.fresh_xid () in
        Hashtbl.replace t.pending xid (Engine.now t.engine);
        t.echoes_sent <- t.echoes_sent + 1;
        t.send_echo ~xid;
        arm_tick t
      end

and arm_tick t =
  t.tick_handle <-
    Some
      (Engine.schedule t.engine ~delay:t.config.echo_interval (fun () ->
           tick t))

and go_down t =
  set_state t Down;
  t.downs <- t.downs + 1;
  t.down_since <- Engine.now t.engine;
  (* [pending] is kept: a reply arriving after this point proves the
     detection was a false alarm. *)
  t.on_down ();
  arm_probe t ~attempt:0

(* Reconnection: probe the channel with echoes on an exponential-backoff
   schedule until one is answered (or any message arrives). *)
and arm_probe t ~attempt =
  t.probe_handle <-
    Some
      (Engine.schedule t.engine ~delay:(reconnect_delay t ~attempt)
         (fun () ->
           t.probe_handle <- None;
           match t.state with
           | Down | Reconnecting ->
               if t.state = Down then set_state t Reconnecting;
               let xid = t.fresh_xid () in
               Hashtbl.replace t.probes xid (Engine.now t.engine);
               t.probes_sent <- t.probes_sent + 1;
               t.send_echo ~xid;
               arm_probe t ~attempt:(attempt + 1)
           | Handshaking | Up | Probing -> ()))

let restore t =
  let now = Engine.now t.engine in
  let downtime = now -. t.down_since in
  t.downtime_closed <- t.downtime_closed +. downtime;
  Stats.add t.recovery_times downtime;
  (match t.probe_handle with Some h -> Engine.cancel h | None -> ());
  t.probe_handle <- None;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.probes;
  t.conn_dead <- false;
  set_state t Up;
  t.on_restore ~downtime;
  if enabled t && t.tick_handle = None then arm_tick t

(* A node crash kills the whole process: every timer dies with it and
   the pending-echo bookkeeping is forgotten (a late reply to a
   pre-crash echo is not a false positive — the process really died).
   Unlike [go_down], no reconnect probes are armed: a dead process
   cannot probe. [revive] re-enters the normal reconnect machinery. *)
let force_down t =
  (match t.tick_handle with Some h -> Engine.cancel h | None -> ());
  t.tick_handle <- None;
  (match t.probe_handle with Some h -> Engine.cancel h | None -> ());
  t.probe_handle <- None;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.probes;
  t.conn_dead <- true;
  match t.state with
  | Down | Reconnecting -> ()
  | Handshaking | Up | Probing ->
      set_state t Down;
      t.downs <- t.downs + 1;
      t.down_since <- Engine.now t.engine;
      t.on_down ()

let revive t =
  match t.state with
  | Down | Reconnecting ->
      if t.probe_handle = None then arm_probe t ~attempt:0
  | Handshaking | Up | Probing ->
      if enabled t && t.tick_handle = None then arm_tick t

(* The peer's process died under the connection (its crash is
   immediately visible as a TCP reset, unlike silent message loss):
   this side is still alive, so — unlike [force_down] — it goes down
   the normal way and keeps probing for the peer's return. *)
let note_disconnect t =
  match t.state with
  | Down | Reconnecting -> ()
  | Handshaking | Up | Probing ->
      (* The reset closed the connection: keepalives already in flight
         died with it, so a late reply is not a false positive here —
         unlike the missed-echo path, where [pending] is kept. *)
      Hashtbl.reset t.pending;
      t.conn_dead <- true;
      go_down t

let note_activity t =
  match t.state with
  | Handshaking -> set_state t Up
  | Up -> ()
  | Probing ->
      Hashtbl.reset t.pending;
      set_state t Up
  | Down | Reconnecting ->
      (* After a connection death, stray traffic may still be the old
         connection draining; hold out for an answered probe. A down
         inferred from echo loss has no such ambiguity: any sign of
         life restores. *)
      if not t.conn_dead then restore t

let note_echo_reply t ~xid =
  let now = Engine.now t.engine in
  if Hashtbl.mem t.probes xid then begin
    Hashtbl.remove t.probes xid;
    t.replies_matched <- t.replies_matched + 1;
    match t.state with
    | Down | Reconnecting -> restore t
    | Handshaking | Up | Probing -> ()
  end
  else begin
    match Hashtbl.find_opt t.pending xid with
    | Some sent -> begin
        Hashtbl.remove t.pending xid;
        t.replies_matched <- t.replies_matched + 1;
        Stats.add t.echo_rtts (now -. sent);
        match t.state with
        | Down | Reconnecting ->
            (* Reply to a pre-outage keepalive: the channel never
               actually died, the misses were pure delay. *)
            t.false_positives <- t.false_positives + 1;
            restore t
        | Probing -> if Hashtbl.length t.pending = 0 then set_state t Up
        | Up | Handshaking -> ()
      end
    | None ->
        t.replies_unmatched <- t.replies_unmatched + 1;
        (* Even an unmatched reply proves the peer is alive. *)
        note_activity t
  end

let start t = if enabled t && t.tick_handle = None then arm_tick t

let downs t = t.downs
let false_positives t = t.false_positives
let echoes_sent t = t.echoes_sent
let probes_sent t = t.probes_sent
let replies_matched t = t.replies_matched
let replies_unmatched t = t.replies_unmatched
let echo_rtts t = t.echo_rtts
let recovery_times t = t.recovery_times

let total_downtime t =
  if is_down t then t.downtime_closed +. (Engine.now t.engine -. t.down_since)
  else t.downtime_closed

let transitions t = List.rev t.transitions_rev
