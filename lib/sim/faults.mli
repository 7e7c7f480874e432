(** Deterministic control-channel fault injection.

    The paper's flow-granularity mechanism exists because the control
    channel can fail to answer (Algorithm 1's re-request timeout), and
    measurement studies of OpenFlow deployments show control-path loss
    is bursty and delay-correlated rather than i.i.d. A {!t} is a
    {e fault plan}: a declarative {!spec} plus a private {!Rng.t}
    stream, consulted once per message by {!Link}. Because the plan
    owns its generator and draws in a fixed order per message, the same
    seed and spec produce the same fault schedule, message for message
    — chaos runs are exactly reproducible.

    Four fault classes compose (all optional, all off in {!none}):

    - {b independent loss}: classic Bernoulli drop with probability
      [loss_rate];
    - {b Gilbert–Elliott bursts}: a two-state Markov chain (good/bad)
      with per-state loss probabilities, modelling congestion episodes;
    - {b delay jitter}: uniform extra delivery delay in
      [\[0, jitter_s\]], which reorders messages in flight;
    - {b outage windows}: scheduled intervals [\[start_s, stop_s)]
      during which every message is dropped (link flap, controller
      restart). *)

type burst = {
  p_good_to_bad : float;  (** per-message P(good -> bad) *)
  p_bad_to_good : float;  (** per-message P(bad -> good) *)
  loss_good : float;  (** drop probability while in the good state *)
  loss_bad : float;  (** drop probability while in the bad state *)
}
(** Gilbert–Elliott parameters. The chain starts in the good state and
    transitions once per judged message, after the loss draw. *)

type outage = { start_s : float; stop_s : float }
(** Every message judged at a time in [\[start_s, stop_s)] is dropped. *)

type restart_mode =
  | Warm  (** soft state salvaged where possible (buffered chains frozen) *)
  | Cold  (** all soft state lost: buffers, flow table, microflow cache *)

val restart_mode_to_string : restart_mode -> string
val restart_mode_of_string : string -> (restart_mode, string) result

type crash_node = Switch_node | Controller_node

val crash_node_to_string : crash_node -> string

type crash = {
  node : crash_node;  (** which process dies *)
  at_s : float;  (** crash instant, seconds of simulation time *)
  down_s : float;  (** how long the process stays dead before restarting *)
  mode : restart_mode;
}
(** One scheduled node crash. Crashes are {e schedule-only}: unlike the
    message-level fault classes they are never consulted by {!judge}
    and draw nothing from the plan's RNG — interpretation belongs to
    the scenario layer, which kills and restarts the node at the
    scheduled instants. A spec with crashes but no message faults
    therefore leaves every message-level schedule byte-identical to
    {!none}. *)

type spec = {
  loss_rate : float;  (** independent loss probability, in [\[0, 1\]] *)
  burst : burst option;
  jitter_s : float;  (** max extra delivery delay, seconds *)
  outages : outage list;
  crashes : crash list;
}

val none : spec
(** No faults: zero loss, no bursts, no jitter, no outages. *)

val is_none : spec -> bool

val spec_to_string : spec -> string
(** Canonical textual form, re-parsable by {!spec_of_string}. *)

val spec_of_string : string -> (spec, string) result
(** Parse the CLI [--faults] grammar: comma-separated fields
    [loss=P], [burst=PGB:PBG:LBAD\[:LGOOD\]], [jitter=S],
    [outage=T0-T1\[+T0-T1...\]] and
    [crash=NODE:AT:DOWN:MODE\[+NODE:AT:DOWN:MODE...\]] with [NODE] one
    of [switch]/[sw]/[controller]/[ctl] and [MODE] one of
    [warm]/[cold]; the empty string and ["none"] are {!none}. Times
    are seconds (floats). *)

val crashes_for : spec -> crash_node -> crash list
(** The spec's crashes for one node, sorted by crash time (stable). *)

type reason = Independent_loss | Burst_loss | Outage
(** Why a message was dropped, for per-class accounting. *)

val reason_to_string : reason -> string

type verdict = Deliver of { jitter_s : float } | Drop of reason

type t
(** A fault plan: spec, private RNG stream, burst-chain state and
    counters. *)

val create : ?spec:spec -> rng:Rng.t -> unit -> t
(** [create ~spec ~rng ()] is a fresh plan. [spec] defaults to
    {!none}; invalid specs raise [Invalid_argument]. The generator is
    owned by the plan: do not draw from it elsewhere, or the schedule
    stops being a pure function of the seed. *)

val judge : t -> now:float -> verdict
(** Decide one message's fate at simulation time [now]. Draw order per
    message is fixed (outage check, burst loss + transition,
    independent loss, jitter), so schedules are reproducible. *)

val spec : t -> spec

(** {2 Counters} *)

val dropped : t -> int
(** Total drops, all classes. *)

val dropped_by : t -> reason -> int
val delayed : t -> int
(** Messages delivered with non-zero extra delay. *)
