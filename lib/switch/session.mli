(** Control-session lifecycle: echo-driven liveness, outage detection
    and reconnection with exponential backoff.

    OpenFlow 1.0 keeps the switch–controller connection alive with
    periodic [ECHO_REQUEST]/[ECHO_REPLY] pairs; a peer that stops
    answering is declared dead and the endpoint degrades (the switch
    into {e fail secure} or {e fail standalone} mode, §6.4 of the 1.0
    spec) until the channel is re-established. This module is that
    state machine, shared by both endpoints:

    {v
      Handshaking --activity--> Up --unanswered echo--> Probing
      Probing --reply--> Up
      Probing --echo_misses unanswered--> Down     (on_down fires)
      Down --first probe--> Reconnecting
      Down/Reconnecting --any reply/activity--> Up (on_restore fires)
    v}

    While Up/Probing it sends one keepalive echo per [echo_interval]
    and matches replies by xid (so reordered replies under jitter still
    match). Once Down it switches to reconnect probes on an
    exponential-backoff schedule ([reconnect_delay] growing by
    {!backoff_multiplier} up to {!backoff_cap}). Replies to pre-outage
    keepalives that arrive after the Down transition are counted as
    {e false positives} — the channel was merely slow, not dead.

    With [echo_interval <= 0] the machine is passive: it only tracks
    Handshaking → Up and never declares an outage, which keeps
    echo-free experiments byte-identical to earlier versions. *)

open Sdn_sim

type state = Handshaking | Up | Probing | Down | Reconnecting

val state_to_string : state -> string

(** OpenFlow 1.0 switch behaviour while the controller is unreachable. *)
type fail_mode =
  | Fail_secure
      (** drop miss-match traffic; buffered chains freeze until
          reconnect *)
  | Fail_standalone  (** forward via an internal L2 learning path *)

val fail_mode_to_string : fail_mode -> string

val fail_mode_of_string : string -> (fail_mode, string) result
(** Accepts ["secure"] / ["fail-secure"] / ["fail_secure"] and the
    standalone spellings. *)

type config = {
  echo_interval : float;  (** seconds between keepalives; [<= 0] disables *)
  echo_misses : int;  (** unanswered echoes before declaring Down *)
  reconnect_delay : float;  (** first reconnect probe delay *)
}

val default_config : config
(** Disabled echo (interval 0), 3 misses, 50 ms → ×2 → 400 ms probes. *)

val backoff_multiplier : float
(** 2: each reconnect probe waits twice as long as the one before. The
    switch's flow-granularity re-requests back off by the same
    factor. *)

val backoff_cap : float
(** 0.4 s: the longest reconnect probe delay, and the re-requests'
    cap. *)

type t

val create :
  Engine.t ->
  ?check:Sdn_check.Check.t ->
  ?name:string ->
  config:config ->
  fresh_xid:(unit -> int32) ->
  send_echo:(xid:int32 -> unit) ->
  on_down:(unit -> unit) ->
  on_restore:(downtime:float -> unit) ->
  unit ->
  t
(** [send_echo] must transmit an [ECHO_REQUEST] with the given xid to
    the peer; [on_down] fires on the Up/Probing → Down transition,
    [on_restore] on recovery (with the measured downtime), before the
    keepalive loop restarts.

    With [check] armed, every state transition is reported to the
    invariant checker under [name] (default ["session"]) and verified
    against the legal transition set. *)

val start : t -> unit
(** Begin the keepalive loop (no-op when disabled or already running). *)

val note_activity : t -> unit
(** Any successfully decoded message from the peer arrived. Promotes
    Handshaking → Up, clears a Probing suspicion, and restores a
    Down/Reconnecting session (traffic is proof of liveness) — unless
    the outage began with an observed connection death
    ({!note_disconnect}/{!force_down}), in which case stray traffic may
    be the old connection draining and only an answered reconnect
    probe restores. *)

val note_echo_reply : t -> xid:int32 -> unit
(** An [ECHO_REPLY] with this xid arrived. Matched against outstanding
    keepalives and reconnect probes; unmatched replies still count as
    activity. *)

val force_down : t -> unit
(** The owning process crashed: cancel every timer, forget outstanding
    echoes and probes (a late reply to a pre-crash echo is {e not} a
    false positive — the process really died) and transition to Down
    ([on_down] fires) {e without} arming reconnect probes: a dead
    process cannot probe. Idempotent while already Down/Reconnecting
    (still silences probes). Pair with {!revive} at restart. *)

val revive : t -> unit
(** The owning process restarted: if the session is Down/Reconnecting,
    arm the first reconnect probe (backoff restarts at attempt 0);
    otherwise just re-arm the keepalive loop. *)

val note_disconnect : t -> unit
(** The {e peer's} process died under the connection (a visible TCP
    reset, not silent loss). This side is alive, so it goes Down the
    normal way — [on_down] fires and reconnect probes are armed — and
    keeps probing until the peer returns. Keepalives in flight died
    with the connection: the pending-echo bookkeeping is discarded, a
    late reply is not a false positive, and until a probe is answered
    stray traffic does not restore the session. No-op while already
    Down/Reconnecting. *)

val state : t -> state
val is_down : t -> bool
(** [true] in Down or Reconnecting — the caller should degrade. *)

val downs : t -> int
(** Outage detections (Up/Probing → Down transitions). *)

val false_positives : t -> int
(** Down declarations later contradicted by a reply to a pre-outage
    keepalive. *)

val echoes_sent : t -> int
val probes_sent : t -> int
val replies_matched : t -> int
val replies_unmatched : t -> int
val echo_rtts : t -> Stats.t
val recovery_times : t -> Stats.t
(** Down → Up durations, one sample per recovered outage. *)

val total_downtime : t -> float
(** Cumulative seconds spent Down/Reconnecting, including a still-open
    outage up to the engine's current time. *)

val transitions : t -> (float * state) list
(** The state timeseries, chronological: (time, entered state). *)
