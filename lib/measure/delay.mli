(** Per-flow and per-request delay tracking — the paper's four delay
    metrics (Section III.B):

    - {b flow setup delay}: first packet of a flow entering the switch
      to that packet leaving the switch;
    - {b controller delay}: a [PACKET_IN] leaving the switch to the
      first matching [FLOW_MOD]/[PACKET_OUT] arriving back (paired by
      transaction id, which the controller echoes);
    - {b switch delay}: flow setup delay minus the flow's controller
      delay;
    - {b flow forwarding delay}: first packet entering to the {e last}
      packet of the flow leaving.

    Data-plane packets are attributed to flows via the pktgen
    {!Sdn_traffic.Tag} in their payload; [PACKET_IN]s are attributed
    via the tag visible in their (possibly truncated) data. *)

open Sdn_sim

type t

val create : unit -> t

(** {2 Observation hooks} *)

val on_switch_ingress : t -> time:float -> Bytes.t -> unit
(** A data frame entering the switch. *)

val on_switch_egress : t -> time:float -> Bytes.t -> unit
(** A data frame leaving the switch. *)

val on_to_controller : t -> time:float -> Bytes.t -> unit
(** An OpenFlow message leaving the switch for the controller. *)

val on_to_switch : t -> time:float -> Bytes.t -> unit
(** An OpenFlow message arriving at the switch from the controller. *)

(** {2 Results} *)

val flow_setup_delays : t -> Stats.t
val controller_delays : t -> Stats.t
val switch_delays : t -> Stats.t
val flow_forwarding_delays : t -> Stats.t
(** Only flows whose every packet egressed contribute a forwarding
    delay. *)

val flows_started : t -> int

val flows_completed : t -> int
val packets_in : t -> int
val packets_out : t -> int
val unmatched_responses : t -> int
(** Control responses whose transaction id paired with no outstanding
    request (e.g. handshake traffic). *)

val last_egress_time : t -> float
(** Time the last observed data frame left the switch; [0.] if none. *)
