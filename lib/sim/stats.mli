(** Streaming descriptive statistics.

    {!t} accumulates count/mean/variance online (Welford's algorithm)
    together with min/max and, optionally, the raw samples so that
    percentiles can be computed. The experiment harness records every
    delay sample of a run into one of these and reports
    mean / stddev / max exactly as the paper's tables do. *)

type t
(** A mutable accumulator of [float] samples. *)

val create : ?keep_samples:bool -> unit -> t
(** [create ()] is an empty accumulator. When [keep_samples] is [true]
    (the default) the raw samples are retained so {!percentile} works;
    pass [false] for long-running high-volume streams. *)

val add : t -> float -> unit
(** Record one sample. *)

val count : t -> int
(** Number of samples recorded. *)

val sum : t -> float
(** Sum of all samples. *)

val mean : t -> float
(** Arithmetic mean; [0.] if no samples. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two samples. *)

val stddev : t -> float
(** Square root of {!variance}. *)

val min : t -> float
(** Smallest sample; [nan] if empty. *)

val max : t -> float
(** Largest sample; [nan] if empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], by linear interpolation on
    the sorted samples; [nan] if the accumulator is empty (consistent
    with {!min}/{!max}). Raises [Invalid_argument] if samples were not
    kept or [p] is out of range. *)

val median : t -> float
(** [percentile t 50.]; [nan] if empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having seen both
    sample streams (parallel-variance combination). *)

val samples : t -> float array
(** Copy of the retained samples in insertion order ([||] if not kept). *)

val clear : t -> unit
(** Reset to the empty state. *)
