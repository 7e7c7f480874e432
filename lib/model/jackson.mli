(** Open Jackson networks.

    The switch -> controller -> switch loop is an open network of
    exponential stations: the kernel datapath, the userspace slow
    path and the controller process, visited a fixed expected number
    of times per external packet. Jackson's theorem gives the
    stationary product form; each station then behaves as an
    independent {!Mm1.mmc} queue at its solved arrival rate, and the
    mean time an external arrival spends in the network follows from
    Little's law over the whole network.

    Two entry points: {!solve} takes the per-station visit counts
    directly (the usual reduction for a fixed deterministic route),
    while {!solve_routing} solves the traffic equations
    [lambda = gamma + lambda P] for an explicit routing matrix and
    reduces to the same thing — the cross-validation suite uses the
    former, the property tests pin their equivalence on the paper's
    feedback topology. *)

type node = {
  name : string;
  service : float;  (** mean service time per visit, seconds *)
  servers : int;
}

type station = {
  node : node;
  visits : float;  (** expected visits per external arrival *)
  lambda : float;  (** solved station arrival rate *)
  queue : Mm1.t;  (** the station as an independent M/M/c queue *)
}

type t = {
  arrival_rate : float;  (** total external arrival rate *)
  stations : station list;
  stable : bool;  (** every station below saturation *)
}

val solve : arrival_rate:float -> (node * float) list -> t
(** [solve ~arrival_rate nodes] solves the network in which each
    [node] is visited [visits] times per external arrival:
    [lambda_i = arrival_rate * visits_i]. Raises [Invalid_argument]
    on a negative rate or visit count, or duplicate node names. *)

val solve_routing :
  external_arrivals:float array ->
  routing:float array array ->
  nodes:node array ->
  t
(** [solve_routing ~external_arrivals ~routing ~nodes] solves the
    traffic equations [lambda = gamma + lambda P] by fixed-point
    iteration ([P] substochastic: each row sums to at most 1, the
    deficit leaving the network) and then proceeds as {!solve} with
    [visits_i = lambda_i / sum gamma]. Raises [Invalid_argument] on
    shape mismatches, negative entries, or a row summing above 1. *)

val station : t -> string -> station
(** Station by node name. Raises [Not_found]. *)

val sojourn : t -> string -> float
(** Mean per-visit sojourn [w] of the named station. *)

val mean_jobs : t -> float
(** Mean total number of jobs in the network: [sum l_i]. *)

val response_time : t -> float
(** Mean time an external arrival spends in the network, by Little's
    law on the whole network: [mean_jobs / arrival_rate] — equal to
    [sum visits_i * w_i]. [0] when the arrival rate is [0]. *)
