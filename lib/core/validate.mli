(** Cross-validation of the simulator against the analytical oracle.

    The queueing models in [Sdn_model] predict the simulator's
    steady-state metrics in closed form — but only inside their
    operating regime: Poisson arrivals, exponential service,
    utilization below saturation. This module generates simulator
    configurations that {e satisfy} those assumptions (the
    [Poisson_flows]/[Poisson_mix] workloads, [Exponential] service
    noise, congestion/GC/amortization machinery neutralized, uniform
    per-node service times sized so every station stays inside its
    band), runs them through {!Exec.run_experiments} — inheriting the
    deterministic parallel contract and the [--check] replay — and
    asserts relative agreement within per-metric tolerance bands.

    Three regimes, each specialized to one model:

    - {b jackson}: every packet a fresh single-packet flow (packet-in
      probability 1) walked through the kernel / userspace /
      controller stations of an open Jackson network
      ({!Sdn_model.Jackson}), with the bus and the serialization links
      as M/G/1 and M/D/1 stages. Swept over controller utilization
      [rho] for each controller cost profile.
    - {b feedback}: Mahmood et al.'s single-node model
      ({!Sdn_model.Feedback}): Poisson traffic split between a primed
      long-lived flow and fresh flows with packet-in probability 1/2.
    - {b blocking}: the finite-buffer specialization — buffer-16 as an
      Erlang loss system ({!Sdn_model.Mm1.erlang_b}), swept over
      offered load in Erlangs; buffer-256 at the same rates never
      blocks, which is the paper's buffer-sizing argument.

    DESIGN.md section 12 derives every prediction and documents the
    tolerance rationale. *)

type tolerance = { rel : float; abs : float }
(** A metric agrees when
    [|predicted - observed| <= max (abs, rel *. |predicted|)]. *)

val agrees : tolerance -> predicted:float -> observed:float -> bool
(** The gating predicate: [|predicted - observed| <= max (abs,
    rel *. |predicted|)]. A non-finite observation (an empty series'
    [nan], a saturated run's [infinity]) never agrees — divergence, not
    a vacuous pass. *)

type metric = {
  m_name : string;
  predicted : float;
  observed : float;
  tol : tolerance;
  m_ok : bool;
}

type point = {
  regime : string;  (** ["jackson"], ["feedback"] or ["blocking"] *)
  profile : string;  (** controller cost profile name *)
  target : float;
      (** the swept coordinate: controller utilization [rho]
          (jackson/feedback) or offered load in Erlangs (blocking) *)
  lambda_pps : float;  (** external packet arrival rate *)
  rate_mbps : float;  (** the corresponding sending rate *)
  metrics : metric list;
  p_ok : bool;
}

type report = {
  points : point list;
  ok : bool;  (** every metric of every point within tolerance *)
  violations : int;  (** runtime-checker violations, when armed *)
}

type grid = {
  rhos : float list;  (** controller utilizations for jackson/feedback *)
  offered : float list;  (** offered loads (Erlangs) for blocking *)
  reps : int;  (** replications pooled per point *)
  packets : int;  (** packets injected per replication *)
  profiles : Sdn_controller.Costs.profile list;
}

val full_grid : grid
(** rho in {0.1, 0.3, 0.5, 0.7, 0.9}, offered in {10, 16, 22} Erlangs,
    3 replications of 1500 packets, all controller profiles. *)

val quick_grid : grid
(** CI-sized: rho in {0.2, 0.6}, offered {16}, 2 replications of 500
    packets, all profiles. *)

val golden_grid : grid
(** Byte-stable fixture for the golden test: rho in {0.3, 0.7},
    offered {8}, 1 replication of 600 packets, pox only (its low rates
    stretch the send window past the lead-in, and 8 Erlangs stays
    inside its stable band, so the single replication is
    well-conditioned). *)

val run : ?check:bool -> jobs:int -> grid -> report
(** Generate the grid's configurations ([reps] per model spec), execute
    them as one grid on [jobs] worker domains ({!Exec.run_experiments}:
    byte-identical for every [jobs] value), pool each spec's
    replications and compare against the models.
    [check] arms the runtime protocol-invariant checker in every
    run. *)

val reconvergence : ?check:bool -> jobs:int -> unit -> report
(** Crash-reconvergence gate: re-run the jackson rho=0.3 point
    (pox profile) with a warm switch crash scheduled a third of
    the way into the send window and keepalive detection armed, then
    assert that the run still agrees with the crash-free analytical
    model. Only the per-message steady-state delay metrics
    ([controller_delay], [setup_delay]) are held to the grid's
    tolerance bands — frames arriving while the node is dead are lost
    unmeasured, so a recovered node must leave no lasting bias in them,
    while run-wide aggregates (CPU%, occupancy, rates) legitimately
    shift with the lost load and are excluded. Two extra metrics gate
    the recovery itself: [recovery_time_s] (observed time from crash to
    the session re-entering Up, predicted as the scheduled outage
    duration) and [reconciliations_per_crash] (exactly one completed
    flow-state reconciliation per crash; [nan] when no node ever
    crashed, which fails the band). Deterministic and byte-identical
    for every [jobs] value, like {!run}. *)

val csv : report -> string
(** Machine-readable agreement report, one row per (point, metric):
    [regime,profile,target,lambda_pps,rate_mbps,metric,predicted,
    observed,abs_error,tolerance,status]. Deterministic: byte-stable
    across [jobs] values and repeated runs. *)

val summary : report -> string
(** Human-readable table plus a pass/fail tail line. *)
