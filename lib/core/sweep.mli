(** Rate sweeps with repetitions — the paper's methodology: every
    sending rate from 5 to 100 Mbps in 5 Mbps steps, 20 repetitions
    per point. *)

type point = { rate_mbps : float; results : Experiment.result list }

type series = { label : string; points : point list }

val default_rates : float list
(** [5; 10; ...; 100]. *)

val seed_for : rate_mbps:float -> rep:int -> int
(** The release-stable seed for one grid cell:
    [rate * 10 * 1000 + rep + 1]. Distinct across every (rate,
    repetition) pair of the paper's grid; golden-tested so recorded
    figures stay reproducible across releases. *)

val run :
  label:string ->
  ?rates:float list ->
  ?reps:int ->
  ?jobs:int ->
  (rate_mbps:float -> seed:int -> Config.t) ->
  series
(** [run ~label make_config] executes [reps] (default 20) runs per
    rate, seeding each repetition with {!seed_for} (distinct across
    repetitions and across rates). [label] names the series (the
    column prefix of a printed figure); a run is named by
    {!Exec.describe}.

    [jobs] (default 1) fans the independent replications out over that
    many worker domains via {!Exec.run_experiments}; results are merged
    by grid index, so every [jobs] value yields an identical [series].
    [make_config] is always called sequentially in the calling domain,
    rates outer and repetitions inner, exactly as in the sequential
    path — only the [Experiment.run] calls parallelize. *)

val point_mean : point -> (Experiment.result -> float) -> float

val point_sd : point -> (Experiment.result -> float) -> float
(** Sample standard deviation over the point's repetitions; [0.0] when
    the point holds fewer than two samples (a single repetition has no
    spread, not an undefined one). *)

val point_max : point -> (Experiment.result -> float) -> float

val series_mean : series -> (Experiment.result -> float) -> float
(** Mean of the metric over every run at every rate — the quantity
    behind the paper's "on average" claims. *)

val series_sd : series -> (Experiment.result -> float) -> float
(** Sample standard deviation over every run at every rate; [0.0] when
    the whole series holds fewer than two samples. *)

val series_max : series -> (Experiment.result -> float) -> float

val reduction_pct : baseline:float -> improved:float -> float
(** [(baseline - improved) / baseline * 100]. *)
