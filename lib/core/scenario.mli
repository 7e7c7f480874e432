(** The experimental platform of the paper's Fig. 1, assembled:

    {v
      Host1 --100Mbps--> [port 1] Switch [port 2] --100Mbps--> Host2
                                   |
                              control path
                                   |
                               Controller
    v}

    with a tcpdump-style capture on the control channel, delay trackers
    at the switch's interfaces, and both hosts able to inject (Host2
    injects the reverse direction of TCP scenarios). *)

open Sdn_sim
open Sdn_measure

type t = {
  engine : Engine.t;
  switch : Sdn_switch.Switch.t;
  controller : Sdn_controller.Controller.t;
  check : Sdn_check.Check.t option;
      (** the runtime invariant checker, armed when the config's
          [check] flag is set *)
  capture : Capture.t;
  delay : Delay.t;
  host1_link : Bytes.t Link.t;  (** Host1 -> switch port 1 *)
  host2_link : Bytes.t Link.t;  (** Host2 -> switch port 2 *)
  to_controller : Bytes.t Link.t;
  to_switch : Bytes.t Link.t;
  traffic_rng : Rng.t;
  mutable host1_received : int;
  mutable host2_received : int;
  mutable crash_events_rev : (float * string) list;
      (** injected crash/restart events, newest first; read through
          {!crash_events} *)
}

val build : Config.t -> t
(** Construct and hand-shake the whole platform (switch housekeeping
    started, controller HELLO / FEATURES exchanged at time zero, flow
    granularity enabled over the vendor extension when configured). *)

val inject : t -> in_port:int -> Bytes.t -> unit
(** Send a frame from the host attached to [in_port] (1 or 2). *)

val crash_events : t -> (float * string) list
(** The crash/restart events the fault plan's crash schedule injected,
    oldest first — e.g. [("0.2", "switch crash (cold)")] followed by
    the matching restart. Empty when the plan has no crashes. *)

val run_until_quiet : ?min_time:float -> t -> unit
(** Run the engine until every injected packet has either egressed or
    been dropped, probing in 2-second slices. Pass
    [min_time] (absolute simulation time) to keep running at least
    that long even through quiet periods — needed for workloads with
    idle gaps, such as the TCP rule-eviction scenario. *)
