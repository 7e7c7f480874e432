type mechanism = Sdn_switch.Switch.mechanism =
  | No_buffer
  | Packet_granularity
  | Flow_granularity

type fail_mode = Sdn_switch.Session.fail_mode =
  | Fail_secure
  | Fail_standalone

type workload =
  | Exp_a of { n_flows : int }
  | Exp_b of { n_flows : int; packets_per_flow : int; concurrent : int }
  | Udp_burst of { n_packets : int }
  | Poisson_flows of { n_flows : int }
  | Poisson_mix of { n_packets : int; miss_fraction : float }

type qos = {
  classify : Sdn_controller.App.context -> int32;
  policy : Sdn_switch.Egress_queue.policy;
  queues : Sdn_switch.Egress_queue.queue_config list;
}

type t = {
  mechanism : mechanism;
  buffer_capacity : int;
  rate_mbps : float;
  frame_size : int;
  workload : workload;
  seed : int;
  release_strategy : Sdn_controller.Controller.release_strategy;
  faults : Sdn_sim.Faults.spec;
  miss_send_len : int;
  resend_timeout : float;
  max_resends : int;
  flow_table_capacity : int;
  rule_idle_timeout : int;
  echo_interval : float;
  echo_misses : int;
  fail_mode : fail_mode;
  overload_watermark : float;
  buf_policy : Sdn_switch.Buf_policy.kind option;
  qos : qos option;
  egress_bandwidth_bps : float option;
  check : bool;
  switch_costs : Sdn_switch.Costs.t;
  controller_costs : Sdn_controller.Costs.t;
}

let default =
  {
    mechanism = Packet_granularity;
    buffer_capacity = 256;
    rate_mbps = 30.0;
    frame_size = 1000;
    workload = Exp_a { n_flows = 1000 };
    seed = 1;
    release_strategy = `Pair;
    faults = Sdn_sim.Faults.none;
    miss_send_len = 128;
    resend_timeout = 50e-3;
    max_resends = 3;
    flow_table_capacity = 2048;
    rule_idle_timeout = 5;
    echo_interval = 0.0;
    echo_misses = 3;
    fail_mode = Fail_secure;
    overload_watermark = 1.0;
    buf_policy = None;
    qos = None;
    egress_bandwidth_bps = None;
    check = false;
    switch_costs = Calibration.switch_costs;
    controller_costs = Calibration.controller_costs;
  }

let exp_a ~mechanism ~buffer_capacity ~rate_mbps ~seed =
  { default with mechanism; buffer_capacity; rate_mbps; seed }

let exp_b ~mechanism ~rate_mbps ~seed =
  {
    default with
    mechanism;
    buffer_capacity = 256;
    rate_mbps;
    seed;
    workload = Exp_b { n_flows = 50; packets_per_flow = 20; concurrent = 5 };
  }

let packets_expected t =
  match t.workload with
  | Exp_a { n_flows } -> n_flows
  | Exp_b { n_flows; packets_per_flow; _ } -> n_flows * packets_per_flow
  | Udp_burst { n_packets } -> n_packets
  | Poisson_flows { n_flows } -> n_flows
  (* plus the flow-0 primer *)
  | Poisson_mix { n_packets; _ } -> n_packets + 1

let with_mechanism t mechanism =
  let buffer_capacity =
    match mechanism with
    | No_buffer -> 0
    | Packet_granularity | Flow_granularity -> t.buffer_capacity
  in
  { t with mechanism; buffer_capacity }

let label t =
  let base =
    match t.mechanism with
    | No_buffer -> "no-buffer"
    | Packet_granularity -> Printf.sprintf "buffer-%d" t.buffer_capacity
    | Flow_granularity -> "flow-granularity"
  in
  match t.buf_policy with
  | None -> base
  | Some kind ->
      Printf.sprintf "%s/%s" base (Sdn_switch.Buf_policy.kind_to_string kind)
