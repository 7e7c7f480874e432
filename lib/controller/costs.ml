open Sdn_sim

type service_distribution = Lognormal | Exponential

type t = {
  cores : int;
  parse_base_cost : float;
  parse_per_byte : float;
  decision_cost : float;
  encode_base_cost : float;
  encode_per_byte : float;
  congestion_threshold : int;
  congestion_slope : float;
  congestion_cap : float;
  gc_window : float;
  gc_threshold_bytes : int;
  gc_slope_per_kb : float;
  gc_cap : float;
  gc_pause_duration : float;
  gc_pause_min_gap : float;
  service_noise_sigma : float;
  service_distribution : service_distribution;
  restart_warm_s : float;
  restart_cold_s : float;
  reconcile_per_entry_cost : float;
}

let default =
  {
    cores = 2;
    parse_base_cost = 18e-6;
    parse_per_byte = 25e-9;
    decision_cost = 30e-6;
    encode_base_cost = 6e-6;
    encode_per_byte = 25e-9;
    congestion_threshold = 16;
    congestion_slope = 0.01;
    congestion_cap = 1.3;
    gc_window = 5e-3;
    gc_threshold_bytes = 38_000;
    gc_slope_per_kb = 0.015;
    gc_cap = 1.8;
    gc_pause_duration = 2.5e-3;
    gc_pause_min_gap = 25e-3;
    service_noise_sigma = 0.08;
    service_distribution = Lognormal;
    (* Floodlight restarts as a single JVM process: fast warm resume,
       sub-second cold boot of the module loader. *)
    restart_warm_s = 50e-3;
    restart_cold_s = 0.8;
    reconcile_per_entry_cost = 2e-6;
  }

type profile = Pox | Floodlight | Opendaylight

(* Single-threaded Python: one core, an interpreted parse/decision
   path roughly an order of magnitude above the JVM controllers. *)
let pox =
  {
    default with
    cores = 1;
    parse_base_cost = 150e-6;
    parse_per_byte = 80e-9;
    decision_cost = 220e-6;
    encode_base_cost = 25e-6;
    (* Interpreter start-up dominates the cold boot; reconciliation
       walks the flow view in Python. *)
    restart_warm_s = 120e-3;
    restart_cold_s = 2.5;
    reconcile_per_entry_cost = 10e-6;
  }

(* The paper's testbed controller: the calibrated defaults. *)
let floodlight = default

(* Heavier framework per message than Floodlight but wider thread
   pools on the same class of hardware. *)
let opendaylight =
  {
    default with
    cores = 4;
    parse_base_cost = 22e-6;
    parse_per_byte = 30e-9;
    decision_cost = 55e-6;
    encode_base_cost = 8e-6;
    (* The OSGi container makes cold boots by far the slowest of the
       three; the datastore keeps warm restarts quick and per-entry
       reconciliation cheap. *)
    restart_warm_s = 80e-3;
    restart_cold_s = 4.0;
    reconcile_per_entry_cost = 3e-6;
  }

let of_profile = function
  | Pox -> pox
  | Floodlight -> floodlight
  | Opendaylight -> opendaylight

let profile_to_string = function
  | Pox -> "pox"
  | Floodlight -> "floodlight"
  | Opendaylight -> "opendaylight"

let profiles = [ Pox; Floodlight; Opendaylight ]

let noise t rng =
  match t.service_distribution with
  | Lognormal -> fun () -> Rng.lognormal_factor rng ~sigma:t.service_noise_sigma
  | Exponential -> fun () -> Rng.exponential rng ~mean:1.0

let penalty t ~queue_len =
  let excess = float_of_int (max 0 (queue_len - t.congestion_threshold)) in
  Float.min t.congestion_cap (1.0 +. (t.congestion_slope *. excess))

let gc_factor t ~window_bytes =
  let excess_kb =
    float_of_int (max 0 (window_bytes - t.gc_threshold_bytes)) /. 1000.0
  in
  Float.min t.gc_cap (1.0 +. (t.gc_slope_per_kb *. excess_kb))
