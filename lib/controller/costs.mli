(** Controller-side resource cost model (the Floodlight process).

    The paper's controller-usage measurements show parse cost growing
    with the bytes carried in each [PACKET_IN] (the no-buffer penalty)
    and a super-linear regime once many large requests arrive
    concurrently ("an approximate exponential variation", Fig. 3).
    The model therefore prices a request as

    [parse_base + parse_per_byte * msg_bytes + decision
     + encode_base * replies + encode_per_byte * reply_bytes]

    and applies a queue-length congestion penalty — GC pressure and
    scheduler thrashing under concurrency — once the backlog passes
    [congestion_threshold]. *)

type service_distribution =
  | Lognormal  (** multiplicative [exp (sigma * N(0,1))] jitter *)
  | Exponential
      (** multiplicative [Exp(1)] factor, making every service time
          exponential with its configured mean — the memoryless regime
          the analytical oracle's M/M/c stations assume *)

type t = {
  cores : int;
  parse_base_cost : float;
  parse_per_byte : float;
  decision_cost : float;  (** forwarding-table consultation *)
  encode_base_cost : float;  (** per outgoing message *)
  encode_per_byte : float;  (** per byte of data carried out *)
  congestion_threshold : int;  (** backlog at which the penalty starts *)
  congestion_slope : float;  (** extra work fraction per queued message *)
  congestion_cap : float;  (** upper bound of the penalty factor *)
  gc_window : float;
      (** sliding window (seconds) over which incoming message bytes
          are summed to estimate memory pressure *)
  gc_threshold_bytes : int;  (** pressure-free byte budget per window *)
  gc_slope_per_kb : float;
      (** extra work fraction per KB of window bytes above threshold —
          the JVM garbage-collection/copy pressure that makes handling
          many concurrent {e large} PACKET_INs super-linear (paper
          Fig. 3, no-buffer); small buffered messages never reach the
          threshold *)
  gc_cap : float;
  gc_pause_duration : float;
      (** stop-the-world pause length (seconds) injected while the byte
          window stays above threshold — the source of the no-buffer
          controller-delay spikes past ~60 Mbps in the paper's Fig. 6 *)
  gc_pause_min_gap : float;  (** minimum time between pauses *)
  service_noise_sigma : float;
  service_distribution : service_distribution;
  restart_warm_s : float;
      (** process boot time after a warm crash–restart: the control
          plane is stalled (every core busy) for this long before any
          queued message is served *)
  restart_cold_s : float;
      (** boot time after a cold restart (full state loss): module /
          interpreter / container start-up, much longer than warm *)
  reconcile_per_entry_cost : float;
      (** CPU work per flow-table entry compared during the
          post-rejoin flow-state reconciliation audit *)
}

val default : t

(** {1 Controller cost profiles}

    Swappable presets standing in for the controller implementations
    the SDN literature benchmarks against each other. Only the
    per-message cost structure and the thread-pool width vary; the
    congestion/GC shape is shared. [Floodlight] is the paper's testbed
    controller and equals {!default}. *)

type profile =
  | Pox
      (** single-threaded Python controller: [cores = 1], roughly an
          order of magnitude more per-message work *)
  | Floodlight  (** the calibrated defaults (the paper's testbed controller) *)
  | Opendaylight
      (** wider thread pool ([cores = 4]), heavier framework per
          message than Floodlight *)

val of_profile : profile -> t
val profile_to_string : profile -> string
val profiles : profile list
(** All presets, in CLI/report order. *)

val noise : t -> Sdn_sim.Rng.t -> unit -> float
(** The multiplicative service-time jitter sampler selected by
    [service_distribution]. *)

val penalty : t -> queue_len:int -> float
(** [min cap (1 + slope * max 0 (queue - threshold))]. *)

val gc_factor : t -> window_bytes:int -> float
(** [min gc_cap (1 + gc_slope_per_kb * excess_kb)]. *)
