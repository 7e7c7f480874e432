(** Stock controller applications. *)

open Sdn_net

val forwarding :
  hosts:(Ip.t * Mac.t * int) list ->
  ?idle_timeout:int ->
  ?hard_timeout:int ->
  unit ->
  App.t
(** Floodlight-style reactive forwarding over a known host table:
    route by destination IP (falling back to destination MAC), install
    a 5-tuple rule, release the packet. Unroutable packets flood. *)

val learning_switch : unit -> App.t
(** Classic L2 learning switch: learns source MAC to ingress port
    bindings from [PACKET_IN]s, forwards to the learned port or floods,
    and installs a rule once the destination is known. *)

val qos_forwarding :
  hosts:(Ip.t * Mac.t * int) list ->
  classify:(App.context -> int32) ->
  ?idle_timeout:int ->
  unit ->
  App.t
(** Like {!forwarding} but installs [Enqueue] actions: the classifier
    maps each new flow to an egress queue id, so the switch's QoS
    scheduler (the paper's future-work extension) can differentiate
    classes. *)

val dropper : unit -> App.t
(** Drops everything (a "deny" policy); useful in tests. *)
