(** Deterministic pseudo-random number generator (SplitMix64).

    Every experiment run is seeded explicitly so that sweeps with 20
    repetitions per point are exactly reproducible. SplitMix64 is fast,
    has a 64-bit state, passes BigCrush, and supports cheap stream
    splitting, which we use to give each traffic source its own
    independent stream. *)

type t
(** A mutable generator state, held in 8 bytes so that a draw stores
    the new state in place instead of boxing it. *)

val create : int64 -> t
(** [create seed] is a fresh generator. Distinct seeds give independent
    streams. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val copy : t -> t
(** Independent copy with the same current state. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of the remainder of [t]'s stream; [t] is advanced. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform integer in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform float in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed value (Box-Muller). *)

val lognormal_factor : t -> sigma:float -> float
(** [lognormal_factor t ~sigma] is [exp (sigma * N(0,1))]: a
    multiplicative noise factor with median 1. Used to jitter service
    times so repeated runs exhibit realistic variance. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)
