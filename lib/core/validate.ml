(* Cross-validation of the simulator against the closed-form models.

   The configurations generated here are *operating-regime* builds:
   Poisson arrivals, exponential service noise, uniform per-station
   service times, congestion/GC/batch-amortization machinery
   neutralized, utilization kept inside the models' stability band.
   Within that regime the Sdn_model predictions are exact up to the
   approximations documented in DESIGN.md section 12 (FIFO correlation
   across consecutive visits, arrival smoothing by the ingress link,
   batch pairing of FLOW_MOD/PACKET_OUT on the down link, finite-run
   transients), which the tolerance bands absorb. *)

open Sdn_net
open Sdn_openflow
module Mm1 = Sdn_model.Mm1
module Jackson = Sdn_model.Jackson
module Feedback = Sdn_model.Feedback
module Sw = Sdn_switch.Costs
module Ctl = Sdn_controller.Costs

type tolerance = { rel : float; abs : float }

type metric = {
  m_name : string;
  predicted : float;
  observed : float;
  tol : tolerance;
  m_ok : bool;
}

type point = {
  regime : string;
  profile : string;
  target : float;
  lambda_pps : float;
  rate_mbps : float;
  metrics : metric list;
  p_ok : bool;
}

type report = { points : point list; ok : bool; violations : int }

type grid = {
  rhos : float list;
  offered : float list;
  reps : int;
  packets : int;
  profiles : Ctl.profile list;
}

let full_grid =
  {
    rhos = [ 0.1; 0.3; 0.5; 0.7; 0.9 ];
    offered = [ 10.0; 16.0; 22.0 ];
    reps = 3;
    packets = 1500;
    profiles = Ctl.profiles;
  }

let quick_grid =
  {
    rhos = [ 0.2; 0.6 ];
    offered = [ 16.0 ];
    reps = 2;
    packets = 500;
    profiles = Ctl.profiles;
  }

let golden_grid =
  {
    rhos = [ 0.3; 0.7 ];
    (* 8 Erlangs is reachable inside every profile's stable band —
       the fixture never sits on the bisection cap. *)
    offered = [ 8.0 ];
    reps = 1;
    packets = 600;
    (* pox: its low service rates stretch 300 packets into a send
       window long enough to dominate the lead-in, keeping the single
       replication's estimates well-conditioned. *)
    profiles = [ Ctl.Pox ];
  }

(* ---- Operating-regime constants ---- *)

(* Frame size equals miss_send_len, so a buffered PACKET_IN and a
   full-frame fallback carry identical byte counts — the blocked and
   accepted paths of the blocking regime load every station equally. *)
let frame_size = 128
let q_mix = 0.5

(* Ceiling for kernel/userspace utilization at the top of the rho
   sweep: the controller is the designated bottleneck, the switch
   stations stay comfortably below saturation but still queue. *)
let util_cap = 0.35

(* Patterns.poisson_mix default: the flow-0 primer leads the main
   phase by this much. *)
let prime_lead = 0.05
let kernel_visits = 4.0 (* rx, upcall, release, fwd *)
let userspace_visits = 3.0 (* upcall, flow_mod, pkt_out *)

(* ---- Wire sizes, from the real codec ---- *)

let addressing = Sdn_traffic.Addressing.default

let sample_packet =
  Packet.udp_frame_of_size ~src_mac:addressing.Sdn_traffic.Addressing.src_mac
    ~dst_mac:addressing.Sdn_traffic.Addressing.dst_mac
    ~src_ip:(Sdn_traffic.Addressing.src_ip addressing ~flow_id:0)
    ~dst_ip:addressing.Sdn_traffic.Addressing.dst_ip
    ~src_port:(Sdn_traffic.Addressing.src_port addressing ~flow_id:0)
    ~dst_port:addressing.Sdn_traffic.Addressing.dst_port ~frame_size
    ~payload_fill:(fun _ -> ())

let sample_frame = Packet.encode sample_packet
let encoded_bytes msg = Bytes.length (Of_codec.encode ~xid:1l msg)

let pkt_in_bytes =
  encoded_bytes
    (Of_codec.Packet_in
       (Of_packet_in.make ~buffer_id:1l ~in_port:1
          ~reason:Of_packet_in.No_match ~frame:sample_frame
          ~miss_send_len:(Some frame_size)))

let flow_mod_bytes =
  encoded_bytes
    (Of_codec.Flow_mod
       (Of_flow_mod.add
          ~match_:
            (Of_match.of_flow_key (Option.get (Packet.flow_key sample_packet)))
          ~actions:[ Of_action.output 2 ] ()))

let po_release_bytes =
  let po = Of_packet_out.release ~buffer_id:1l ~out_port:2 in
  encoded_bytes
    (Of_codec.Packet_out { po with Of_packet_out.actions = [ Of_action.output 2 ] })

let po_full_bytes =
  let po = Of_packet_out.full ~frame:sample_frame ~in_port:1 ~out_port:2 in
  encoded_bytes
    (Of_codec.Packet_out { po with Of_packet_out.actions = [ Of_action.output 2 ] })

(* ---- Deterministic station service times ---- *)

let tx ~bytes ~bps = float_of_int bytes *. 8.0 /. bps
let bus_bw = Sw.default.Sw.bus_bandwidth_bps
let descriptor = Sw.default.Sw.bus_descriptor_bytes
let tx_bus_a = tx ~bytes:(frame_size + descriptor) ~bps:bus_bw
let tx_bus_b = tx ~bytes:descriptor ~bps:bus_bw
let ctl_bw = Calibration.control_link_bandwidth_bps
let ctl_prop = Calibration.control_link_latency
let tx_up = tx ~bytes:pkt_in_bytes ~bps:ctl_bw
let tx_fm = tx ~bytes:flow_mod_bytes ~bps:ctl_bw
let tx_po = tx ~bytes:po_release_bytes ~bps:ctl_bw
let tx_po_full = tx ~bytes:po_full_bytes ~bps:ctl_bw
let tx_eg = tx ~bytes:frame_size ~bps:Calibration.data_link_bandwidth_bps
let reclaim_lag = Sdn_switch.Switch.reclaim_lag

(* Mean controller work per buffered PACKET_IN under `Pair release
   (two replies, no data carried back). *)
let controller_service (cc : Ctl.t) ~data_out =
  cc.Ctl.parse_base_cost
  +. (cc.Ctl.parse_per_byte *. float_of_int pkt_in_bytes)
  +. cc.Ctl.decision_cost
  +. (2.0 *. cc.Ctl.encode_base_cost)
  +. (cc.Ctl.encode_per_byte *. float_of_int data_out)

(* M/G/1 with a deterministic service mixture: [classes] are
   (probability, service) pairs. *)
let mg1_classes ~lambda classes =
  let mean = List.fold_left (fun a (w, s) -> a +. (w *. s)) 0.0 classes in
  let m2 = List.fold_left (fun a (w, s) -> a +. (w *. s *. s)) 0.0 classes in
  Mm1.mg1_wait ~lambda ~mean_service:mean ~second_moment:m2

(* ---- Validation cost profiles ---- *)

let validation_controller_costs profile =
  {
    (Ctl.of_profile profile) with
    Ctl.congestion_slope = 0.0;
    congestion_cap = 1.0;
    gc_threshold_bytes = max_int;
    gc_slope_per_kb = 0.0;
    gc_cap = 1.0;
    gc_pause_duration = 0.0;
    service_distribution = Ctl.Exponential;
  }

(* Top of the rho sweep: the arrival rate at controller utilization
   0.9 for this profile. Switch stations are sized off it so they
   reach util_cap exactly there. *)
let lambda_top cc = 0.9 *. float_of_int cc.Ctl.cores /. controller_service cc ~data_out:0

(* Per-visit service time that puts a switch station at util_cap when
   [lambda] packets/s each visit it [visits] times. *)
let station ~visits lambda = util_cap /. (visits *. lambda)

(* The jackson and blocking regimes' kernel and userspace stations,
   sized off the top of the rho sweep. *)
let jackson_stations cc =
  let lt = lambda_top cc in
  (station ~visits:kernel_visits lt, station ~visits:userspace_visits lt)

(* The feedback sweep's top rate is higher (the controller serves only
   the miss fraction), so its single switch station, visited (1+q)
   times per packet, is sized off its own top. *)
let feedback_station cc =
  station ~visits:(1.0 +. q_mix) (lambda_top cc /. q_mix)

let jackson_switch_costs ~s_k ~s_u =
  {
    Sw.default with
    Sw.kernel_cores = 1;
    userspace_cores = 1;
    kernel_rx_cost = s_k;
    kernel_fwd_cost = s_k;
    kernel_upcall_cost = s_k;
    release_per_packet_cost = s_k;
    upcall_base_cost = s_u;
    upcall_per_byte = 0.0;
    buffer_alloc_cost = 0.0;
    pkt_out_base_cost = s_u;
    pkt_out_per_byte = 0.0;
    flow_mod_install_cost = s_u;
    flow_mod_apply_latency = 0.0;
    amortization_floor = 1.0;
    service_distribution = Sw.Exponential;
  }

(* Mahmood's single switch station: only the kernel serves (rx for
   every packet, release for every miss — (1+q) visits with service),
   the upcall/forward kernel visits and the whole userspace path cost
   nothing. *)
let feedback_switch_costs ~s_s =
  {
    Sw.default with
    Sw.kernel_cores = 1;
    userspace_cores = 1;
    kernel_rx_cost = s_s;
    kernel_fwd_cost = 0.0;
    kernel_upcall_cost = 0.0;
    release_per_packet_cost = s_s;
    upcall_base_cost = 0.0;
    upcall_per_byte = 0.0;
    buffer_alloc_cost = 0.0;
    pkt_out_base_cost = 0.0;
    pkt_out_per_byte = 0.0;
    flow_mod_install_cost = 0.0;
    flow_mod_apply_latency = 0.0;
    amortization_floor = 1.0;
    service_distribution = Sw.Exponential;
  }

(* ---- Predictions ---- *)

let agrees tol ~predicted ~observed =
  Float.is_finite observed
  && Float.abs (predicted -. observed)
     <= Float.max tol.abs (tol.rel *. Float.abs predicted)

let mk_metric name predicted observed tol =
  { m_name = name; predicted; observed; tol; m_ok = agrees tol ~predicted ~observed }

(* Base tolerance per metric; high-utilization rho points get a wider
   relative band (transient bias and estimator variance both grow with
   1/(1-rho)). Calibrated against the full grid: bands sit at roughly
   2.5-3x the worst observed residual. *)
let widen ~target tol =
  { tol with rel = (if target >= 0.85 then 3.0 *. tol.rel else tol.rel) }
let tol_controller_delay = { rel = 0.15; abs = 0.15e-3 }
let tol_setup_delay = { rel = 0.15; abs = 0.3e-3 }
let tol_cpu = { rel = 0.12; abs = 1.0 }
let tol_buffer = { rel = 0.25; abs = 0.6 }
let tol_pkt_in_rate = { rel = 0.10; abs = 30.0 }
let tol_blocking = { rel = 0.30; abs = 0.02 }

type observed = {
  o_controller_delay : float;
  o_setup_delay : float;
  o_controller_cpu : float;
  o_switch_cpu : float;
  o_buffer_mean : float;
  o_pkt_in_rate : float;
  o_blocking : float;
}

(* Count-weighted mean of one summary over a spec's runs; nan when no
   run measured a sample. *)
let pooled f (results : Experiment.result list) =
  let num, den =
    List.fold_left
      (fun (num, den) r ->
        let s : Experiment.summary = f r in
        (num +. (s.Experiment.mean *. float_of_int s.Experiment.count),
         den + s.Experiment.count))
      (0.0, 0) results
  in
  if den = 0 then nan else num /. float_of_int den

let observe (results : Experiment.result list) =
  let len = float_of_int (List.length results) in
  let mean f = List.fold_left (fun a r -> a +. f r) 0.0 results /. len in
  let isum f = List.fold_left (fun a r -> a + f r) 0 results in
  let fsum f = List.fold_left (fun a r -> a +. f r) 0.0 results in
  {
    o_controller_delay = pooled (fun r -> r.Experiment.controller_delay) results;
    o_setup_delay = pooled (fun r -> r.Experiment.setup_delay) results;
    o_controller_cpu = mean (fun r -> r.Experiment.controller_cpu_pct);
    o_switch_cpu = mean (fun r -> r.Experiment.switch_cpu_pct);
    o_buffer_mean = mean (fun r -> r.Experiment.buffer_mean_in_use);
    o_pkt_in_rate =
      float_of_int (isum (fun r -> r.Experiment.pkt_ins))
      /. Float.max 1e-9 (fsum (fun r -> r.Experiment.send_window));
    o_blocking =
      float_of_int (isum (fun r -> r.Experiment.full_packet_fallbacks))
      /. float_of_int
           (Stdlib.max 1 (isum (fun r -> Config.packets_expected r.Experiment.config)));
  }

let jackson_metrics ~lambda ~cc ~s_k ~s_u ~n obs ~target =
  let s_c = controller_service cc ~data_out:0 in
  let net =
    Jackson.solve ~arrival_rate:lambda
      [
        ({ Jackson.name = "kernel"; service = s_k; servers = 1 }, kernel_visits);
        ({ Jackson.name = "userspace"; service = s_u; servers = 1 },
         userspace_visits);
        ({ Jackson.name = "controller"; service = s_c; servers = cc.Ctl.cores },
         1.0);
      ]
  in
  let w_k = Jackson.sojourn net "kernel" in
  let w_u = Jackson.sojourn net "userspace" in
  let w_c = Jackson.sojourn net "controller" in
  let wq_bus =
    mg1_classes ~lambda:(2.0 *. lambda) [ (0.5, tx_bus_a); (0.5, tx_bus_b) ]
  in
  let wq_up = Mm1.md1_wait ~lambda ~service:tx_up in
  let wq_down =
    mg1_classes ~lambda:(2.0 *. lambda) [ (0.5, tx_fm); (0.5, tx_po) ]
  in
  let wq_eg = Mm1.md1_wait ~lambda ~service:tx_eg in
  (* The measured pair closes when the first response (the FLOW_MOD)
     is {e delivered} back to the switch: the down-link transmission
     and propagation are part of it. *)
  let controller_delay =
    tx_up +. ctl_prop +. w_c +. wq_down +. tx_fm +. ctl_prop
  in
  let setup =
    (2.0 *. w_k) +. wq_bus +. tx_bus_a +. w_u +. wq_up +. tx_up +. ctl_prop
    +. w_c +. wq_down +. tx_fm +. ctl_prop +. w_u +. s_u +. wq_bus +. tx_bus_b
    +. (2.0 *. w_k) +. wq_eg
  in
  let t_hold =
    wq_bus +. tx_bus_a +. w_u +. wq_up +. tx_up +. ctl_prop +. w_c +. wq_down
    +. tx_fm +. ctl_prop +. w_u +. s_u +. reclaim_lag
  in
  let send = float_of_int n /. lambda in
  let d_occ = send /. (Experiment.traffic_start +. send) in
  let t = widen ~target in
  [
    mk_metric "controller_delay" controller_delay obs.o_controller_delay
      (t tol_controller_delay);
    mk_metric "setup_delay" setup obs.o_setup_delay (t tol_setup_delay);
    mk_metric "controller_cpu_pct"
      (lambda *. s_c *. 100.0)
      obs.o_controller_cpu (t tol_cpu);
    mk_metric "switch_cpu_pct"
      (lambda *. ((kernel_visits *. s_k) +. (userspace_visits *. s_u)) *. 100.0)
      obs.o_switch_cpu (t tol_cpu);
    mk_metric "buffer_mean_in_use"
      (lambda *. t_hold *. d_occ)
      obs.o_buffer_mean (t tol_buffer);
  ]

let feedback_metrics ~lambda ~cc ~s_s ~n obs ~target =
  let q = q_mix in
  let s_c = controller_service cc ~data_out:0 in
  let fb =
    Feedback.eval
      {
        Feedback.lambda;
        packet_in_prob = q;
        switch_service = s_s;
        switch_servers = 1;
        controller_service = s_c;
        controller_servers = cc.Ctl.cores;
        loop_delay = tx_up +. ctl_prop;
      }
  in
  let w_s = fb.Feedback.switch.Mm1.w in
  let wq_s = fb.Feedback.switch.Mm1.wq in
  let w_c = fb.Feedback.controller.Mm1.w in
  let wq_bus =
    mg1_classes ~lambda:(2.0 *. q *. lambda)
      [ (0.5, tx_bus_a); (0.5, tx_bus_b) ]
  in
  let wq_up = Mm1.md1_wait ~lambda:(q *. lambda) ~service:tx_up in
  let wq_down =
    mg1_classes ~lambda:(2.0 *. q *. lambda) [ (0.5, tx_fm); (0.5, tx_po) ]
  in
  let wq_eg = Mm1.md1_wait ~lambda ~service:tx_eg in
  let controller_delay =
    fb.Feedback.packet_in_rtt +. wq_down +. tx_fm +. ctl_prop
  in
  (* The miss path: rx (full sojourn), upcall (zero service: pure
     wait), bus up, free userspace, control round trip, bus down,
     release (full sojourn), forward (pure wait), egress wait. *)
  let setup =
    w_s +. wq_s +. wq_bus +. tx_bus_a +. wq_up +. tx_up +. ctl_prop +. w_c
    +. wq_down +. tx_fm +. tx_po +. ctl_prop +. wq_bus +. tx_bus_b +. w_s
    +. wq_s +. wq_eg
  in
  let t_hold =
    wq_bus +. tx_bus_a +. wq_up +. tx_up +. ctl_prop +. w_c +. wq_down
    +. tx_fm +. tx_po +. ctl_prop +. reclaim_lag
  in
  let send = float_of_int n /. lambda in
  let d_cpu = send /. (prime_lead +. send) in
  let d_occ = send /. (Experiment.traffic_start +. prime_lead +. send) in
  let t = widen ~target in
  [
    mk_metric "controller_delay" controller_delay obs.o_controller_delay
      (t tol_controller_delay);
    mk_metric "setup_delay" setup obs.o_setup_delay (t tol_setup_delay);
    mk_metric "controller_cpu_pct"
      (q *. lambda *. s_c *. d_cpu *. 100.0)
      obs.o_controller_cpu (t tol_cpu);
    mk_metric "switch_cpu_pct"
      ((1.0 +. q) *. lambda *. s_s *. d_cpu *. 100.0)
      obs.o_switch_cpu (t tol_cpu);
    mk_metric "pkt_in_rate"
      (((q *. float_of_int n) +. 1.0) /. (prime_lead +. send))
      obs.o_pkt_in_rate (t tol_pkt_in_rate);
    mk_metric "buffer_mean_in_use"
      (q *. lambda *. t_hold *. d_occ)
      obs.o_buffer_mean (t tol_buffer);
  ]

(* ---- The blocking regime: buffer-16 as an Erlang loss system ----

   Every packet follows the same processing path whether its buffer
   allocation succeeds or falls back to a full-frame PACKET_IN (the
   byte counts are identical by construction), so station loads do not
   depend on the blocking probability; only the controller's encode
   work and the down-link/bus mix shift slightly with the full
   PACKET_OUT of blocked packets. A short fixed point over the
   blocking probability settles that coupling. *)

type blocking_pieces = {
  bp_offered : float;
  bp_blocking : float;
  bp_controller_delay : float;
  bp_t_hold : float;
}

let blocking_pieces ~lambda ~cc ~s_k ~s_u ~capacity =
  let eval b =
    let s_c =
      controller_service cc ~data_out:0
      +. (b *. cc.Ctl.encode_per_byte *. float_of_int frame_size)
    in
    let net =
      Jackson.solve ~arrival_rate:lambda
        [
          ({ Jackson.name = "kernel"; service = s_k; servers = 1 },
           kernel_visits);
          ({ Jackson.name = "userspace"; service = s_u; servers = 1 },
           userspace_visits);
          ({ Jackson.name = "controller"; service = s_c; servers = cc.Ctl.cores },
           1.0);
        ]
    in
    let w_u = Jackson.sojourn net "userspace" in
    let w_c = Jackson.sojourn net "controller" in
    let wq_bus =
      mg1_classes ~lambda:(2.0 *. lambda)
        [
          (0.5, tx_bus_a);
          (0.5 *. (1.0 -. b), tx_bus_b);
          (0.5 *. b, tx_bus_a);
        ]
    in
    let wq_up = Mm1.md1_wait ~lambda ~service:tx_up in
    let wq_down =
      mg1_classes ~lambda:(2.0 *. lambda)
        [
          (0.5, tx_fm);
          (0.5 *. (1.0 -. b), tx_po);
          (0.5 *. b, tx_po_full);
        ]
    in
    let controller_delay =
      tx_up +. ctl_prop +. w_c +. wq_down +. tx_fm +. ctl_prop
    in
    let t_hold =
      wq_bus +. tx_bus_a +. w_u +. wq_up +. tx_up +. ctl_prop +. w_c +. wq_down
      +. tx_fm +. ctl_prop +. w_u +. s_u +. reclaim_lag
    in
    let offered = lambda *. t_hold in
    let b' = Mm1.erlang_b ~servers:capacity ~offered_load:offered in
    (b', { bp_offered = offered; bp_blocking = b'; bp_controller_delay = controller_delay; bp_t_hold = t_hold })
  in
  let rec settle b i =
    let b', pieces = eval b in
    if i = 0 then pieces else settle b' (i - 1)
  in
  settle 0.0 3

(* Find the arrival rate at which the offered load hits [target]
   Erlangs. Offered load is increasing in lambda; the search is capped
   below controller saturation, so a target unreachable inside the
   stable band degrades to the highest well-conditioned point. *)
let blocking_lambda ~cc ~s_k ~s_u ~capacity ~target =
  let cap = 0.8 *. float_of_int cc.Ctl.cores /. controller_service cc ~data_out:0 in
  let offered l = (blocking_pieces ~lambda:l ~cc ~s_k ~s_u ~capacity).bp_offered in
  if offered cap <= target then cap
  else begin
    let lo = ref 1.0 and hi = ref cap in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if offered mid < target then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

let blocking_metrics ~lambda ~cc ~s_k ~s_u ~capacity ~n obs ~target =
  let p = blocking_pieces ~lambda ~cc ~s_k ~s_u ~capacity in
  let send = float_of_int n /. lambda in
  let d_occ = send /. (Experiment.traffic_start +. send) in
  let t = widen ~target:0.0 in
  ignore target;
  (* Near controller saturation the holding time is dominated by the
     controller sojourn, making consecutive holds long {e and}
     serially correlated — which inflates loss above the Erlang-B
     baseline (whose insensitivity assumes holds independent of the
     arrival process). Points pushed there (pox reaching double-digit
     Erlangs) get a wider band. *)
  let rho_c =
    lambda *. controller_service cc ~data_out:0 /. float_of_int cc.Ctl.cores
  in
  let tol_b =
    if rho_c > 0.7 then { rel = 0.5; abs = 0.06 } else tol_blocking
  in
  [
    mk_metric "blocking" p.bp_blocking obs.o_blocking tol_b;
    mk_metric "buffer_mean_in_use"
      (p.bp_offered *. (1.0 -. p.bp_blocking) *. d_occ)
      obs.o_buffer_mean (t tol_buffer);
    mk_metric "controller_delay" p.bp_controller_delay obs.o_controller_delay
      (t tol_controller_delay);
  ]

(* ---- Specs and configurations ---- *)

type regime_kind = Jackson_r | Feedback_r | Blocking_r

let regime_name = function
  | Jackson_r -> "jackson"
  | Feedback_r -> "feedback"
  | Blocking_r -> "blocking"

type spec = {
  sp_regime : regime_kind;
  sp_profile : Ctl.profile;
  sp_target : float;
  sp_lambda : float;
  sp_n : int;
}

let specs_of grid =
  let with_profiles f = List.concat_map f grid.profiles in
  let jackson =
    with_profiles (fun profile ->
        let cc = validation_controller_costs profile in
        let s_c = controller_service cc ~data_out:0 in
        List.map
          (fun rho ->
            {
              sp_regime = Jackson_r;
              sp_profile = profile;
              sp_target = rho;
              sp_lambda = rho *. float_of_int cc.Ctl.cores /. s_c;
              sp_n = grid.packets;
            })
          grid.rhos)
  in
  let feedback =
    with_profiles (fun profile ->
        let cc = validation_controller_costs profile in
        let s_c = controller_service cc ~data_out:0 in
        List.map
          (fun rho ->
            (* The controller serves q*lambda: rho targets controller
               utilization, as in the jackson sweep. *)
            {
              sp_regime = Feedback_r;
              sp_profile = profile;
              sp_target = rho;
              sp_lambda = rho *. float_of_int cc.Ctl.cores /. (q_mix *. s_c);
              sp_n = grid.packets;
            })
          grid.rhos)
  in
  let blocking =
    with_profiles (fun profile ->
        let cc = validation_controller_costs profile in
        let s_k, s_u = jackson_stations cc in
        List.map
          (fun a ->
            {
              sp_regime = Blocking_r;
              sp_profile = profile;
              sp_target = a;
              sp_lambda = blocking_lambda ~cc ~s_k ~s_u ~capacity:16 ~target:a;
              sp_n = grid.packets;
            })
          grid.offered)
  in
  jackson @ feedback @ blocking

let spec_switch_costs spec =
  let cc = validation_controller_costs spec.sp_profile in
  match spec.sp_regime with
  | Jackson_r | Blocking_r ->
      let s_k, s_u = jackson_stations cc in
      jackson_switch_costs ~s_k ~s_u
  | Feedback_r -> feedback_switch_costs ~s_s:(feedback_station cc)

let rate_mbps_of lambda = lambda *. float_of_int frame_size *. 8.0 /. 1e6

let config_of ~check spec ~spec_idx ~rep =
  let n = spec.sp_n in
  {
    Config.default with
    Config.mechanism = Config.Packet_granularity;
    buffer_capacity = (match spec.sp_regime with Blocking_r -> 16 | _ -> 4096);
    rate_mbps = rate_mbps_of spec.sp_lambda;
    frame_size;
    workload =
      (match spec.sp_regime with
      | Jackson_r | Blocking_r -> Config.Poisson_flows { n_flows = n }
      | Feedback_r ->
          Config.Poisson_mix { n_packets = n; miss_fraction = q_mix });
    seed = (spec_idx * 97) + rep + 1;
    release_strategy = `Pair;
    miss_send_len = frame_size;
    flow_table_capacity = n + 64;
    rule_idle_timeout = 120;
    check;
    switch_costs = spec_switch_costs spec;
    controller_costs = validation_controller_costs spec.sp_profile;
  }

let point_of spec results =
  let obs = observe results in
  let cc = validation_controller_costs spec.sp_profile in
  let s_k, s_u = jackson_stations cc in
  let metrics =
    match spec.sp_regime with
    | Jackson_r ->
        jackson_metrics ~lambda:spec.sp_lambda ~cc ~s_k ~s_u ~n:spec.sp_n obs
          ~target:spec.sp_target
    | Feedback_r ->
        feedback_metrics ~lambda:spec.sp_lambda ~cc ~s_s:(feedback_station cc)
          ~n:spec.sp_n obs ~target:spec.sp_target
    | Blocking_r ->
        blocking_metrics ~lambda:spec.sp_lambda ~cc ~s_k ~s_u ~capacity:16
          ~n:spec.sp_n obs ~target:spec.sp_target
  in
  {
    regime = regime_name spec.sp_regime;
    profile = Ctl.profile_to_string spec.sp_profile;
    target = spec.sp_target;
    lambda_pps = spec.sp_lambda;
    rate_mbps = rate_mbps_of spec.sp_lambda;
    metrics;
    p_ok = List.for_all (fun m -> m.m_ok) metrics;
  }

(* The one runner behind both gates: [reps] configurations per spec,
   run as a single grid, each spec scored on its slice of the results. *)
let run_specs ~jobs ~reps specs ~config_of ~point_of =
  let configs =
    Array.of_list
      (List.concat
         (List.mapi
            (fun spec_idx spec ->
              List.init reps (fun rep -> config_of spec ~spec_idx ~rep))
            specs))
  in
  let results = Exec.run_experiments ~jobs configs in
  let points =
    List.mapi
      (fun spec_idx spec ->
        point_of spec
          (List.init reps (fun rep -> results.((spec_idx * reps) + rep))))
      specs
  in
  {
    points;
    ok = List.for_all (fun p -> p.p_ok) points;
    violations =
      Array.fold_left
        (fun acc (r : Experiment.result) -> acc + r.Experiment.check_violations)
        0 results;
  }

let run ?(check = false) ~jobs grid =
  run_specs ~jobs ~reps:grid.reps (specs_of grid) ~config_of:(config_of ~check)
    ~point_of

(* ---- Crash reconvergence gate ---- *)

(* A mid-run crash must not leave a lasting bias. Frames that arrive
   while the node is dead are dropped unmeasured, so once the node has
   restarted and reconciled, the pooled per-message delay estimators
   have to re-enter the same tolerance bands the crash-free grid is
   held to. Aggregate metrics (CPU%, occupancy, rates) are excluded by
   design: the crash window removes offered load, so the run-wide
   averages shift even when the steady state has fully reconverged. *)

(* pox for the same reason the golden grid uses it: its low rates
   stretch 600 packets into a send window several times the outage, so
   the node recovers with roughly half the traffic still to come — the
   pooled delay estimators genuinely cover the post-recovery steady
   state, not just the pre-crash lead-in. 600 flows also keep the
   audit's Flow_reply inside a single frame (no multipart in this
   codec), so reconciliation can actually verify the whole table. *)
let reconvergence_grid =
  {
    rhos = [ 0.3 ];
    offered = [];
    reps = 2;
    packets = 600;
    profiles = [ Ctl.Pox ];
  }

(* Crash a third of the way into the send window; stay dead long
   enough for keepalive detection (echo_misses x echo_interval) to be
   comfortably inside the outage. *)
let reconvergence_crash spec =
  let send = float_of_int spec.sp_n /. spec.sp_lambda in
  {
    Sdn_sim.Faults.node = Sdn_sim.Faults.Switch_node;
    at_s = Experiment.traffic_start +. (0.3 *. send);
    down_s = Float.max 0.05 (0.15 *. send);
    mode = Sdn_sim.Faults.Warm;
  }

let reconvergence_config_of ~check spec ~spec_idx ~rep =
  let base = config_of ~check spec ~spec_idx ~rep in
  {
    base with
    Config.echo_interval = 0.01;
    echo_misses = 2;
    faults =
      {
        base.Config.faults with
        Sdn_sim.Faults.crashes = [ reconvergence_crash spec ];
      };
  }

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.equal (String.sub hay i nn) needle then true
    else scan (i + 1)
  in
  nn > 0 && scan 0

(* Recovery is restart-driven: the session is back Up within one
   outage-length of the scheduled downtime (the surviving peer's
   reconnect probes back off geometrically from the keepalive
   interval, so the first answered probe lags the restart by at most
   about one backoff step). rel=1.0 encodes exactly that bound. *)
let tol_recovery = { rel = 1.0; abs = 0.0 }
let tol_exact = { rel = 0.0; abs = 1e-6 }

let reconvergence_point_of spec results =
  let obs = observe results in
  let cc = validation_controller_costs spec.sp_profile in
  let s_k, s_u = jackson_stations cc in
  let steady =
    jackson_metrics ~lambda:spec.sp_lambda ~cc ~s_k ~s_u ~n:spec.sp_n obs
      ~target:spec.sp_target
  in
  let delays =
    List.filter (fun m -> contains_sub m.m_name "delay") steady
  in
  let crashes =
    List.fold_left (fun a r -> a + r.Experiment.node_crashes) 0 results
  in
  let recovery_mean = pooled (fun r -> r.Experiment.crash_recovery) results in
  let reconciled =
    List.fold_left
      (fun a r ->
        a
        + List.length
            (List.filter
               (fun (_, what) -> contains_sub what "reconciliation done")
               r.Experiment.crash_events))
      0 results
  in
  let crash = reconvergence_crash spec in
  let metrics =
    delays
    @ [
        (* Warm switch restarts are restart-driven, not timeout-driven:
           time back to steady state tracks the scheduled outage plus a
           reconnect probe and a handshake's worth of resync. *)
        mk_metric "recovery_time_s" crash.Sdn_sim.Faults.down_s recovery_mean
          tol_recovery;
        (* Every crash must end in exactly one completed flow-state
           reconciliation; nan/0 here means the node never recovered. *)
        mk_metric "reconciliations_per_crash" 1.0
          (if crashes = 0 then nan
           else float_of_int reconciled /. float_of_int crashes)
          tol_exact;
      ]
  in
  {
    regime = "reconverge";
    profile = Ctl.profile_to_string spec.sp_profile;
    target = spec.sp_target;
    lambda_pps = spec.sp_lambda;
    rate_mbps = rate_mbps_of spec.sp_lambda;
    metrics;
    p_ok = List.for_all (fun m -> m.m_ok) metrics;
  }

let reconvergence ?(check = false) ~jobs () =
  let grid = reconvergence_grid in
  run_specs ~jobs ~reps:grid.reps
    (List.filter
       (fun s -> match s.sp_regime with Jackson_r -> true | _ -> false)
       (specs_of grid))
    ~config_of:(reconvergence_config_of ~check)
    ~point_of:reconvergence_point_of

(* ---- Rendering ---- *)

let f6 v = Printf.sprintf "%.6g" v

let rows_of report =
  List.concat_map
    (fun p ->
      List.map
        (fun m ->
          let bound = Float.max m.tol.abs (m.tol.rel *. Float.abs m.predicted) in
          [
            p.regime;
            p.profile;
            f6 p.target;
            f6 p.lambda_pps;
            f6 p.rate_mbps;
            m.m_name;
            f6 m.predicted;
            f6 m.observed;
            f6 (Float.abs (m.predicted -. m.observed));
            f6 bound;
            (if m.m_ok then "ok" else "FAIL");
          ])
        p.metrics)
    report.points

let csv_header =
  [
    "regime"; "profile"; "target"; "lambda_pps"; "rate_mbps"; "metric";
    "predicted"; "observed"; "abs_error"; "tolerance"; "status";
  ]

let csv report = Sdn_measure.Report.csv ~header:csv_header ~rows:(rows_of report)

let summary report =
  let table = Sdn_measure.Report.table ~header:csv_header ~rows:(rows_of report) in
  let metrics = List.concat_map (fun p -> p.metrics) report.points in
  let failed = List.length (List.filter (fun m -> not m.m_ok) metrics) in
  Printf.sprintf "%s\n\n%s: %d points, %d metrics, %d out of tolerance%s\n"
    table
    (if report.ok then "AGREEMENT" else "DIVERGENCE")
    (List.length report.points)
    (List.length metrics) failed
    (if report.violations > 0 then
       Printf.sprintf " (%d runtime-check violations)" report.violations
     else "")
