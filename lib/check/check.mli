(** Runtime protocol-invariant checker.

    A verification layer threaded through the simulation (enabled with
    [--check] on the CLI and always-on in the invariant test suites).
    Components report semantically-interesting events — buffer-unit
    allocations and releases, PACKET_IN emissions, control-session
    state transitions, every encoded OpenFlow message — and the checker
    validates the protocol invariants the paper's mechanism (Algorithms
    1 and 2) depends on:

    - {b buffer-conservation}: every buffered packet is released or
      expired exactly once, and a [buffer_id] is never re-allocated
      while still live;
    - {b single-packet-in}: one flow chain triggers exactly one
      original PACKET_IN (Algorithm 1 line 8); appends are silent, and
      only the timeout machinery may re-send;
    - {b xid-uniqueness}: freshly-allocated transaction ids never
      repeat within a control session (replies legitimately echo the
      request's xid and are exempt);
    - {b session-transitions}: the liveness state machine only takes
      legal edges (e.g. [Handshaking] never jumps straight to
      [Reconnecting]);
    - {b codec-roundtrip}: [decode (encode m) = m] for every message
      put on the control channel;
    - {b microflow-agreement}: the switch's exact-match fast path
      returns the same entry as the full flow-table lookup;
    - {b parallel-equivalence}: a sampled task of a parallel sweep,
      re-run sequentially in the calling domain, produces a
      field-for-field identical {!Sdn_core.Experiment.result};
    - {b shared-pool-conservation}: in a policy-managed shared buffer
      pool, the sum of per-class holdings plus the pool's free count
      equals the registered capacity at every claim/release event, no
      class's holdings ever go negative, and only registered classes
      claim or release;
    - {b cold-restart-wipe}: no buffered chain survives a cold node
      restart — the wipe must have expired every live unit of the
      crashed pool;
    - {b flow-reconciliation}: after a crashed node rejoins and the
      controller's reconciliation pass completes, the controller's
      view of the installed entries matches the switch's flow table.

    Violations are recorded as structured reports carrying the tail of
    the event trace leading up to them; optionally they raise
    {!Violation} immediately. *)

type t

type violation = {
  time : float;  (** virtual time of the violation *)
  invariant : string;  (** invariant id, e.g. ["buffer-conservation"] *)
  detail : string;  (** what exactly went wrong *)
  trace : (float * string) list;
      (** tail of the event trace, oldest first, violation last *)
}

exception Violation of violation

val create : ?trace_depth:int -> ?raise_on_violation:bool -> unit -> t
(** A fresh checker. [trace_depth] (default 48) bounds the event-trace
    tail attached to each violation; with [raise_on_violation] (default
    [false]) the first violation raises {!Violation} instead of only
    being recorded. *)

val record : t -> time:float -> string -> unit
(** Append a free-form event to the trace ring (for context only). *)

(* ---- Buffer conservation + single PACKET_IN ---- *)

val note_buffer_alloc : t -> time:float -> pool:string -> id:int32 -> unit
(** A buffer unit was allocated under [id]. Violation if [id] is still
    live in [pool]. *)

val note_buffer_append : t -> time:float -> pool:string -> id:int32 -> unit
(** A packet was chained onto live unit [id]. Violation if [id] is not
    live. *)

val note_buffer_release :
  t -> time:float -> pool:string -> id:int32 -> packets:int -> unit
(** Unit [id] released [packets] packets. Violation if [id] is not
    live (double release / release of an unknown id) or if the packet
    count disagrees with the allocs+appends observed. *)

val note_buffer_expire : t -> time:float -> pool:string -> id:int32 -> unit
(** Unit [id] expired (abandoned after the resend budget, or packet
    buffer timeout). Violation if [id] is not live. *)

val note_packet_in :
  t -> time:float -> pool:string -> id:int32 -> resend:bool -> unit
(** A PACKET_IN was generated for buffered unit [id]. Violation if the
    unit is not live, or if a second {e original} (non-resend)
    PACKET_IN is generated for the same live chain. *)

(* ---- Crash state-loss ---- *)

val note_crash_wipe : t -> time:float -> pool:string -> unit
(** A cold node restart just wiped buffer pool [pool]. Violation if any
    chain of that pool is still live in the conservation ledger — no
    chain may survive a cold restart. Call {e after} the wipe has
    reported its expiries. *)

(* ---- Shared-pool conservation ---- *)

val note_pool_create :
  t -> time:float -> pool:string -> headroom:int -> unit
(** Shared pool [pool] came up with [headroom] capacity units beyond
    what its classes' quotas will contribute. Must precede the pool's
    first claim so the conservation sum sees the full capacity. *)

val note_pool_register :
  t -> time:float -> pool:string -> class_:string -> quota:int -> unit
(** Class [class_] joined shared pool [pool] with a static [quota]
    contribution to the pool's capacity. Violation if the class is
    already registered in that pool. *)

val note_pool_claim :
  t -> time:float -> pool:string -> class_:string -> free:int -> unit
(** Class [class_] claimed one unit from [pool]; [free] is the pool's
    free count {e after} the claim. Violation if the class is
    unregistered or the conservation sum (holdings + free = capacity)
    no longer holds. *)

val note_pool_release :
  t -> time:float -> pool:string -> class_:string -> free:int -> unit
(** Class [class_] returned one unit to [pool]; [free] is the pool's
    free count {e after} the release. Violation if the class is
    unregistered, its holdings would go negative, or conservation
    fails. *)

val note_reconciliation :
  t -> time:float -> session:string -> agree:bool -> detail:string -> unit
(** The controller finished a post-rejoin flow-state reconciliation
    pass on [session] and compared its view of the installed entries
    against the switch's reported flow table. Violation when they
    disagree after re-installation; [detail] names the divergence. *)

(* ---- Microflow-cache agreement ---- *)

val note_microflow :
  t -> time:float -> table:string -> agree:bool -> detail:string -> unit
(** The flow table answered a lookup from the microflow cache and — with
    the checker armed — re-ran the full slow-path lookup alongside it.
    Violation when the two disagree (the cache returned a different
    entry, or a hit where the table would miss, or vice versa);
    [detail] describes the divergence. *)

(* ---- Parallel-equivalence replay ---- *)

val note_parallel_replay :
  t -> time:float -> task:string -> equal:bool -> detail:string -> unit
(** A parallel sweep executor re-ran task [task] sequentially in the
    calling domain and compared the two results field-for-field.
    Violation when they disagree — a task body touched mutable state
    shared across domains, or otherwise depended on execution order;
    [detail] names the mismatching fields. *)

(* ---- Control-session invariants ---- *)

val note_session_transition :
  t -> time:float -> session:string -> from_:string -> to_:string -> unit
(** The session state machine moved [from_] one state [to_] another
    (lower-case state names as printed by
    {!Sdn_switch.Session.state_to_string}). Violation on an edge
    outside the legal set. *)

val note_emit :
  t ->
  time:float ->
  session:string ->
  fresh:bool ->
  xid:int32 ->
  msg:Sdn_openflow.Of_codec.msg ->
  encoded:Bytes.t ->
  unit
(** A message was encoded and put on the control channel. Always
    verifies the codec round-trip ([decode encoded] must give back
    [xid] and [msg]); when [fresh] is set (the sender allocated the
    xid rather than echoing a request's) additionally enforces xid
    uniqueness within [session]. *)

(* ---- Results ---- *)

val violations : t -> violation list
(** All recorded violations, oldest first. *)

val violation_count : t -> int
val events_seen : t -> int

val report : t -> string
(** Human-readable multi-line report of every violation with its event
    trace tail; [""] when clean. *)
