(** Stock controller applications. *)

open Sdn_net

val forwarding :
  hosts:(Ip.t * Mac.t * int) list -> ?idle_timeout:int -> unit -> App.t
(** Floodlight-style reactive forwarding over a known host table:
    route by destination IP (falling back to destination MAC), install
    a 5-tuple rule, release the packet. Unroutable packets flood. *)

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
