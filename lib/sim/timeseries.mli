(** Time-indexed measurements.

    Two flavours are provided:

    - {!t}: a plain series of [(time, value)] points, used for sampled
      curves such as CPU utilization over a run.
    - {!Weighted}: a time-weighted accumulator for piecewise-constant
      quantities such as buffer occupancy or the number of busy CPU
      cores; its [mean] is the integral of the value over time divided
      by the observation span, which is what "average buffer units in
      use" means in the paper's Figs. 8 and 13. *)

type t
(** A growable series of time-stamped samples. *)

val create : unit -> t

val add : t -> time:float -> value:float -> unit
(** Append a point. Times are expected to be non-decreasing. *)

val length : t -> int

val points : t -> (float * float) array
(** Copy of all points in insertion order. *)

val values : t -> float array

val mean : t -> float
(** Plain (unweighted) mean of the values; [0.] if empty. *)

val max_value : t -> float
(** Largest value (correct for all-negative series); [0.] if empty. *)

(** Time-weighted accumulator for a piecewise-constant signal. *)
module Weighted : sig
  type w

  val create : ?start:float -> ?initial:float -> unit -> w
  (** Signal begins at [start] (default [0.]) with value [initial]
      (default [0.]). *)

  val update : w -> time:float -> value:float -> unit
  (** The signal takes [value] from [time] onward. [time] must be
      [>=] the previous update time. *)

  val mean : w -> until:float -> float
  (** Time-weighted mean of the signal over [\[start, until\]]. An
      [until] earlier than the last update time is clamped up to it —
      the accumulated integral already covers that span. *)

  val max_value : w -> float
  (** Largest value the signal ever took (including the initial one). *)

  val current : w -> float
  (** Value most recently set. *)
end
