(** Calibration of the simulated testbed against the paper's hardware.

    The paper's Table I testbed: two hosts, one Open vSwitch box and
    one Floodlight box, 100 Mbps Ethernet everywhere, 1000-byte frames.
    Every constant below is chosen so that a specific observation from
    the paper's figures is reproduced; the comment on each value in the
    implementation names that observation. Absolute magnitudes are
    calibrated once and then {e held fixed} across all experiments —
    nothing is re-fitted per figure. *)

val data_link_bandwidth_bps : float
(** 100 Mbps host links (Fig. 1). *)

val data_link_latency : float
(** One-way propagation + NIC latency of a host link. *)

val control_link_bandwidth_bps : float
(** 100 Mbps control path (same class of NIC as the data path). *)

val control_link_latency : float
(** One-way control-channel latency including kernel TCP stack and
    socket scheduling — the dominant fixed term of the paper's
    controller delay (~0.7 ms round trip when unloaded, Fig. 6). *)

val encap_overhead_bytes : int
(** Ethernet + IPv4 + TCP framing around each OpenFlow message as seen
    by tcpdump on the control interface. *)

val switch_costs : Sdn_switch.Costs.t
(** See {!Sdn_switch.Costs} for the meaning of each field. *)

val controller_costs : Sdn_controller.Costs.t

val sanity : unit -> (string * bool) list
(** Self-checks tying constants to the paper's headline observations
    (e.g. a buffered PACKET_IN must be several times smaller than the
    no-buffer one). Each entry is a description and whether it holds,
    in a fixed order; tests assert they all do. *)
