open Sdn_openflow

(* A float-only record: [touch] stores the time unboxed, so a long-lived
   entry neither allocates nor keeps a young box alive per packet. *)
type used = { mutable last_used : float }

type t = {
  match_ : Of_match.t;
  priority : int;
  actions : Of_action.t list;
  cookie : int64;
  idle_timeout : float;
  hard_timeout : float;
  installed_at : float;
  used : used;
  mutable packets : int;
  mutable bytes : int;
}

let last_used t = t.used.last_used

let of_flow_mod (fm : Of_flow_mod.t) ~now =
  {
    match_ = fm.Of_flow_mod.match_;
    priority = fm.Of_flow_mod.priority;
    actions = fm.Of_flow_mod.actions;
    cookie = fm.Of_flow_mod.cookie;
    idle_timeout = float_of_int fm.Of_flow_mod.idle_timeout;
    hard_timeout = float_of_int fm.Of_flow_mod.hard_timeout;
    installed_at = now;
    used = { last_used = now };
    packets = 0;
    bytes = 0;
  }

let touch t ~now ~bytes =
  t.used.last_used <- now;
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + bytes

let is_expired t ~now =
  (t.idle_timeout > 0.0 && now -. t.used.last_used >= t.idle_timeout)
  || (t.hard_timeout > 0.0 && now -. t.installed_at >= t.hard_timeout)

let to_stats t ~now =
  let duration = Float.max 0.0 (now -. t.installed_at) in
  let sec = int_of_float duration in
  let nsec = int_of_float ((duration -. float_of_int sec) *. 1e9) in
  {
    Of_stats.table_id = 0;
    match_ = t.match_;
    duration_sec = Int32.of_int sec;
    duration_nsec = Int32.of_int nsec;
    priority = t.priority;
    idle_timeout = int_of_float t.idle_timeout;
    hard_timeout = int_of_float t.hard_timeout;
    cookie = t.cookie;
    packet_count = Int64.of_int t.packets;
    byte_count = Int64.of_int t.bytes;
    actions = t.actions;
  }
