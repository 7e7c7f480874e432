(** Flow-granularity buffer — the paper's proposed mechanism
    (Section V, Algorithms 1 and 2).

    One buffer unit ({!Buffer_units}) holds {e all} miss-match packets
    of one flow under a single [buffer_id], found by the flow's 5-tuple
    in an {!Int_table} on its three words ({!Microflow.load_flow_key}). The first packet of a flow allocates the unit and
    triggers exactly one [PACKET_IN]; subsequent miss-match packets of
    the same flow are chained onto the unit silently. When the
    [PACKET_OUT] arrives, the whole chain is released at once, so units
    recycle far faster than in the packet-granularity scheme — the
    paper's 71.6% improvement in buffer-utilization efficiency
    (Fig. 13).

    If the controller has not answered within [resend_timeout], the
    switch re-sends the request ("After a timeout period, if the switch
    doesn't receive the control operation messages, it will send
    another request message", Section V.A; Algorithm 1 lines 12-13).
    Successive re-requests back off exponentially: the n-th waits
    [timeout * multiplier^n], capped at [resend_cap], with optional
    multiplicative jitter so simultaneous timeouts desynchronise. After
    [max_resends] unanswered requests the chain is abandoned. The pool
    keeps recovery accounting — flows recovered after at least one
    resend, flows abandoned, and a time-to-recovery distribution — for
    the chaos scenario's reliability report. *)

open Sdn_sim
open Sdn_net

type t

type add_result =
  | First of int32
      (** unit allocated; the caller must send the (single) PACKET_IN *)
  | Appended of int32  (** chained silently; no PACKET_IN *)
  | No_space  (** every unit in use; caller falls back to no-buffer *)

type take_result =
  | Taken of Bytes.t list  (** all chained frames, in arrival order *)
  | Unknown_id

val create :
  Engine.t ->
  ?check:Sdn_check.Check.t ->
  ?pool_name:string ->
  capacity:int ->
  reclaim_lag:float ->
  resend_timeout:float ->
  ?resend_multiplier:float ->
  ?resend_cap:float ->
  ?resend_jitter:float ->
  ?rng:Sdn_sim.Rng.t ->
  max_resends:int ->
  on_resend:(buffer_id:int32 -> key:Flow_key.t -> first_frame:Bytes.t -> unit) ->
  unit ->
  t
(** [on_resend] is invoked by the timeout machinery; the switch wires
    it to PACKET_IN regeneration.

    With [check] armed, every chain allocation, append, release and
    expiry is reported to the invariant checker under [pool_name]
    (default ["flow_pool"]) for buffer-conservation verification.

    [resend_multiplier] (default 1: the paper's fixed period) grows the
    delay before each successive re-request; [resend_cap] (default
    unbounded) caps it; [resend_jitter] (default 0, must be in
    [\[0, 1)]) perturbs each delay by a uniform factor in
    [\[1 - j, 1 + j\]], drawn from [rng] — required when jitter is
    non-zero so the schedule stays seed-deterministic. A backoff that
    fails {!valid_backoff} raises [Invalid_argument]. *)

val valid_backoff :
  resend_timeout:float -> resend_multiplier:float -> resend_cap:float -> bool
(** Whether every re-request timer the policy arms has a delay the
    engine accepts: timeout and cap neither negative nor NaN, and a
    multiplier of at least 1. *)

val set_backoff :
  t ->
  resend_timeout:float ->
  resend_multiplier:float ->
  resend_cap:float ->
  max_resends:int ->
  unit
(** Reconfigure the re-request policy (the vendor
    [Flow_buffer_enable] handler). Already-armed timers keep their old
    delay; the new policy applies from each unit's next arming. A
    backoff that fails {!valid_backoff} raises [Invalid_argument] and
    changes nothing. *)

val add : t -> key:Flow_key.t -> frame:Bytes.t -> add_result
(** Algorithm 1, lines 5-11. While frozen, a [First] allocation does
    {e not} arm the re-request timer — the caller also refrains from
    sending the PACKET_IN, so the chain just accumulates until
    {!resume}. A key with a protocol wider than 8 bits or a port wider
    than 16 raises [Invalid_argument], here and in {!has_chain}. *)

val freeze : t -> unit
(** Controller session lost (fail-secure mode): cancel every armed
    re-request timer so backoff budgets aren't burned into a dead link,
    and stop arming timers for new chains. Idempotent. *)

val resume : t -> unit
(** Controller session restored: chains that had already exhausted
    [max_resends] before the outage are expired (counted in
    {!expired_on_resume} as well as {!abandoned_flows}); every other
    held chain re-enters the backoff machinery at its next attempt
    number, in slot order, so the first re-request goes out one backoff
    delay after reconnect. Idempotent. *)

val wipe : t -> int
(** Cold-restart state loss ({!Buffer_units.wipe}): every held chain
    expires (counted into {!drops}), and the pool unfreezes. Returns
    how many buffered packets were lost. *)

val has_chain : t -> key:Flow_key.t -> bool
(** Whether a chain for [key] is currently held — the overload guard
    uses this to let in-flight flows keep appending while shedding new
    chains. *)

val is_frozen : t -> bool

val freezes : t -> int
(** Number of freeze transitions (outages survived by the pool). *)

val chains_frozen : t -> int
(** Cumulative chains whose timers were cancelled by {!freeze}. *)

val chains_resumed : t -> int
(** Cumulative chains re-armed by {!resume}. *)

val expired_on_resume : t -> int
(** Chains expired at {!resume} because their resend budget was already
    spent before the outage. *)

val take_all : t -> int32 -> take_result
(** Algorithm 2, lines 2-10: release every chained packet and free the
    unit (after the reclaim lag). *)

val units : t -> Buffer_units.t
(** The pool's units: capacity and occupancy. *)

val packets_buffered : t -> int
val flows_buffered : t -> int

val alloc_failures : t -> int
val resends : t -> int
val drops : t -> int
(** Chains abandoned after [max_resends] unanswered requests
    (packets). *)

val abandoned_flows : t -> int
(** Chains abandoned after [max_resends] unanswered requests (flows). *)

val recovered_flows : t -> int
(** Flows released after at least one timed-out re-request — the
    recovery path actually saved them. *)

val recovery_delays : t -> Sdn_sim.Stats.t
(** Time from a recovered flow's first miss to its release; feeds the
    chaos report's time-to-recovery histogram. *)
