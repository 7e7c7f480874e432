(** Workload patterns.

    Each pattern produces a deterministic traffic plan: the time and
    ingress port of every injection, and a function that builds each
    injection's frame when {!Pktgen} injects it, as a pktgen host
    fills its send queue as it goes rather than holding every frame
    encoded up front. Rates follow the paper's convention: frames of
    [frame_size] bytes sent back-to-back at the given application
    rate, with a small seeded jitter so repetitions differ.

    The UDP patterns build their frames from one template per plan:
    the plan encodes a frame once, with the source address, source
    port, tag fields and both checksums zeroed, and keeps the
    one's-complement sums of its IPv4 header and of its UDP datagram
    with the pseudo-header. Each frame copies the template, writes
    its own fields and finishes both checksums from those sums plus
    its own 16-bit words. The bytes equal what {!Sdn_net.Packet.encode}
    gives for the same frame. Their frames carry a {!Tag}, so
    [frame_size] must be at least {!min_udp_frame_size}; a smaller
    size raises [Invalid_argument] when the plan is built. *)

open Sdn_sim

type t = {
  times : float array;  (** injection times, nondecreasing *)
  ports : int array;  (** switch port each frame enters, by index *)
  frame : int -> Bytes.t;
      (** [frame i] builds injection [i]'s frame; {!Pktgen} calls it
          once, when injection [i] is injected *)
  bytes : int;  (** total frame bytes of the plan *)
}
(** A traffic plan. [times] and [ports] have one entry per injection. *)

val spacing : rate_mbps:float -> frame_size:int -> float
(** Inter-frame gap achieving the sending rate. *)

val min_udp_frame_size : int
(** 58 bytes: {!Sdn_net.Packet.min_udp_frame} plus {!Tag.size}, the
    smallest frame the UDP patterns accept. *)

(** {2 UDP patterns}

    Every frame enters on port 1. [jitter], where a pattern takes it,
    must be at most 1, so a gap is never negative. *)

val exp_a :
  rng:Rng.t ->
  ?addressing:Addressing.t ->
  ?start:float ->
  ?jitter:float ->
  n_flows:int ->
  rate_mbps:float ->
  frame_size:int ->
  unit ->
  t
(** Section IV workload: [n_flows] single-packet UDP flows (forged
    source addresses), evenly spaced at the sending rate; injection
    [i] is flow [i]. The paper uses 1000 flows of 1000-byte frames.
    [jitter] is the uniform fraction of the spacing applied to each
    gap (default 0.02). *)

val exp_b :
  rng:Rng.t ->
  ?addressing:Addressing.t ->
  ?start:float ->
  ?jitter:float ->
  n_flows:int ->
  packets_per_flow:int ->
  concurrent:int ->
  rate_mbps:float ->
  frame_size:int ->
  unit ->
  t
(** Section V workload: [n_flows] flows of [packets_per_flow] packets,
    sent in batches of [concurrent] flows whose packets interleave in
    cross sequence (f1 p1, f2 p1, ..., f5 p1, f1 p2, ...); the next
    batch starts when the previous one has been fully sent. The paper
    uses 50 flows x 20 packets in batches of 5. *)

val udp_burst :
  rng:Rng.t ->
  ?addressing:Addressing.t ->
  ?start:float ->
  n_packets:int ->
  rate_mbps:float ->
  frame_size:int ->
  unit ->
  t
(** Section VI.A motivation: one UDP flow (flow 0) suddenly emitting
    [n_packets] back-to-back — every packet a miss until the rule
    lands. Injection [i] is its packet [i]. *)

val poisson_flows :
  rng:Rng.t ->
  ?addressing:Addressing.t ->
  ?start:float ->
  n_flows:int ->
  rate_mbps:float ->
  frame_size:int ->
  unit ->
  t
(** [n_flows] single-packet flows whose inter-arrival gaps are i.i.d.
    exponential with mean [spacing ~rate_mbps ~frame_size] — a Poisson
    arrival process at the given mean rate, every packet a table miss.
    The arrival regime the analytical oracle's Jackson network
    assumes. *)

val poisson_mix :
  rng:Rng.t ->
  ?addressing:Addressing.t ->
  ?start:float ->
  ?prime_lead:float ->
  n_packets:int ->
  miss_fraction:float ->
  rate_mbps:float ->
  frame_size:int ->
  unit ->
  t
(** Poisson arrivals at the mean rate where each packet independently
    belongs to a fresh single-packet flow with probability
    [miss_fraction] (a table miss) and otherwise to the long-lived
    flow 0 (a hit). A single primer packet of flow 0 is injected
    [prime_lead] seconds (default 0.05, must be non-negative) before
    the main phase so its rule is installed by the time the mix
    starts — the split-traffic regime of Mahmood et al.'s feedback
    model with packet-in probability [miss_fraction]. Produces
    [n_packets + 1] injections. *)

(** {2 Templates}

    The frame builder the UDP patterns share, exposed so that a frame
    can be compared with the general encoder's. *)

type template
(** One frame size and addressing, encoded once. *)

val udp_template : Addressing.t -> frame_size:int -> template
(** Raises [Invalid_argument] if [frame_size] is below
    {!min_udp_frame_size} or the frame's lengths overflow their
    16-bit fields. *)

val udp_frame :
  template -> flow_id:int -> seq:int -> flow_packets:int -> Bytes.t
(** A fresh frame of flow [flow_id] ({!Addressing.src_ip},
    {!Addressing.src_port}) whose payload starts with the tag
    [{flow_id; seq; flow_packets}] and is otherwise zero. *)

(** {2 TCP scenario}

    For the Section VI.B discussion. It builds its few frames with the
    plan. *)

val tcp_idle_resume :
  rng:Rng.t ->
  ?addressing:Addressing.t ->
  ?start:float ->
  flow_id:int ->
  first_burst:int ->
  idle_gap:float ->
  second_burst:int ->
  rate_mbps:float ->
  frame_size:int ->
  unit ->
  t
(** The rule-eviction scenario: SYN / SYN-ACK / ACK (small frames, the
    reverse direction entering on port 2), a burst of full-size data
    segments from the initiator, an idle period ([idle_gap],
    non-negative) longer than the rule's idle timeout (during which the
    rule is kicked out of the table), then a resumed burst on the
    {e same} established connection — whose packets are misses again. *)
