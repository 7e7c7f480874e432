(* Observation-by-observation calibration. Figure numbers refer to the
   paper (journal version).

   Fig. 2a: no-buffer control load grows ~linearly with sending rate
   and approaches link speed at 100 Mbps; a 1000 B frame becomes a
   1018 B PACKET_IN (+66 B framing), so load ~ 1.08 x sending rate.
   This needs no tuning: it follows from real message sizes.

   Fig. 2a: buffer-256 mean load ~10.9 Mbps over the sweep; a buffered
   PACKET_IN carries 128 B of data (146 B message), giving
   0.21 x sending rate, whose sweep mean (rates 5..100) is ~11 Mbps.

   Fig. 6: unloaded controller delay ~0.7-0.8 ms (buffer-256).
   Dominated by twice the control-channel latency plus ~66 us of
   controller work, hence control_link_latency = 350 us (kernel TCP
   stack + socket scheduling on commodity PCs).

   Fig. 7: no-buffer switch delay blows up past ~70 Mbps. With the
   ASIC<->CPU bus at 150 Mbps half-duplex, no-buffer misses push
   (1018 + 1024 + descriptors) bytes per packet across it; the bus
   saturates at ~9100 packets/s = ~73 Mbps of sending rate. Buffered
   misses push only ~220 bytes and never saturate it.

   Fig. 8: buffer-16 exhausts between 30 and 35 Mbps. A unit's
   residence is controller delay (~0.8 ms) + PACKET_OUT handling +
   deferred reclamation; with reclaim_lag = 3.2 ms total residence is
   ~4.3 ms, and occupancy = packet rate x residence crosses 16 at
   ~30 Mbps (3750 pkt/s).

   Fig. 6 (no-buffer rise past ~60 Mbps): sustained byte pressure in
   the controller's receive window triggers periodic stop-the-world
   GC pauses (gc_threshold_bytes corresponds to ~70 Mbps of no-buffer
   PACKET_INs; buffered messages never reach it), lifting the
   no-buffer controller delay mean and spread without destabilizing
   the buffered configurations.

   Figs. 9/13 (Exp-B): rules take flow_mod_apply_latency = 0.2 ms to
   reach the datapath after FLOW_MOD processing. Packets of a flow
   arriving within [0, controller delay + apply latency) still miss:
   under packet granularity each triggers its own request (count
   growing with the sending rate); under flow granularity they chain
   onto the existing buffer unit and the single request per flow
   stands (the paper's flat Fig. 9a curve).

   Figs. 3/4: switch usage rises fast then flattens (upcall batch
   amortization); controller usage stays moderate when buffered and
   grows super-linearly without buffers at high rate (large-message
   parse cost + congestion penalty once the backlog passes the
   threshold). *)

let data_link_bandwidth_bps = 100e6
let data_link_latency = 30e-6
let control_link_bandwidth_bps = 100e6
let control_link_latency = 350e-6
let encap_overhead_bytes = 66

let switch_costs = Sdn_switch.Costs.default

let controller_costs = Sdn_controller.Costs.default

let sanity () =
  let c = switch_costs in
  let k = controller_costs in
  let frame = 1000 in
  let pkt_in_no_buffer = 8 + 10 + frame in
  let pkt_in_buffered = 8 + 10 + 128 in
  let pkt_out_no_buffer = 8 + 8 + 8 + frame in
  let pkt_out_buffered = 8 + 8 + 8 in
  let bus_bytes_no_buffer =
    pkt_in_no_buffer + pkt_out_no_buffer + (2 * c.Sdn_switch.Costs.bus_descriptor_bytes)
  in
  let bus_saturation_pps =
    c.Sdn_switch.Costs.bus_bandwidth_bps /. (float_of_int bus_bytes_no_buffer *. 8.0)
  in
  let bus_saturation_mbps = bus_saturation_pps *. float_of_int frame *. 8.0 /. 1e6 in
  let controller_work_buffered =
    k.Sdn_controller.Costs.parse_base_cost
    +. (k.Sdn_controller.Costs.parse_per_byte *. float_of_int pkt_in_buffered)
    +. k.Sdn_controller.Costs.decision_cost
    +. (2.0 *. k.Sdn_controller.Costs.encode_base_cost)
  in
  let unloaded_controller_delay =
    (2.0 *. control_link_latency) +. controller_work_buffered
  in
  let residence =
    unloaded_controller_delay +. 3.2e-3 +. k.Sdn_controller.Costs.encode_base_cost
  in
  let exhaust_mbps = 16.0 /. residence *. float_of_int frame *. 8.0 /. 1e6 in
  [
    ( "buffered PACKET_IN is >5x smaller than the no-buffer one",
      pkt_in_no_buffer > 5 * pkt_in_buffered );
    ( "buffered PACKET_OUT is >10x smaller than the no-buffer one",
      pkt_out_no_buffer > 10 * pkt_out_buffered );
    ( "bus saturates for no-buffer misses between 60 and 85 Mbps",
      bus_saturation_mbps > 60.0 && bus_saturation_mbps < 85.0 );
    ( "unloaded controller delay is 0.4-1.0 ms",
      unloaded_controller_delay > 0.4e-3 && unloaded_controller_delay < 1.0e-3 );
    ( "buffer-16 residence pushes exhaustion into the 25-45 Mbps band",
      exhaust_mbps > 25.0 && exhaust_mbps < 45.0 );
  ]
