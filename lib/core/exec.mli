(** Deterministic (possibly parallel) execution of independent
    experiment replications.

    Every sweep in the repository — rate sweeps, the chaos sweeps, the
    validation grids, the figure/CSV harness, [massive]'s shards —
    reduces to "run this array of configurations, one {!Experiment.run}
    each, and give me the results in configuration order". This module
    is that one funnel: it fans the array out over an
    {!Sdn_sim.Task_pool} domain pool and merges by task index, so the
    result array is byte-identical to the [jobs = 1] sequential
    reference path for every [jobs] value. Each result carries the
    exact configuration it ran ([result.config]), so a sweep's report
    reads its axes back from there.

    When [jobs > 1] and any configuration has its [check] flag armed,
    a deterministically-sampled task is re-run sequentially in the
    calling domain after the parallel pass and compared field-for-field
    ({!Experiment.diff_result}). A mismatch — a task body that touched
    cross-domain mutable state — is recorded as a [parallel-equivalence]
    violation on that task's result, named by {!describe}, flowing
    through the same [check_violations]/[check_report] channel the
    CLI's [--check] epilogue already inspects. Clean runs are left
    untouched, so clean parallel output stays byte-identical to
    sequential output. *)

val run_experiments : jobs:int -> Config.t array -> Experiment.result array
(** [run_experiments ~jobs configs] is the result of
    [Experiment.run configs.(i)] at every index [i], computed on
    [jobs] worker domains ([jobs <= 1]: sequentially in the calling
    domain). *)

val describe : int -> Config.t -> string
(** [describe i config] names run [i] of a grid wherever a report
    needs a name (a parallel-equivalence violation, the CLI's
    [--check] epilogue): the grid index, {!Config.label}, rate, seed,
    fail mode and {!Sdn_sim.Faults.spec_to_string} of the fault plan.
    Two configurations of one chaos sweep never share a description. *)

val replay_index : Config.t array -> int
(** The index the parallel-equivalence check replays: derived from the
    first configuration's seed and the grid size, so the sample varies
    across sweeps but is identical across runs of the same sweep.
    Exposed for the test suite. *)
