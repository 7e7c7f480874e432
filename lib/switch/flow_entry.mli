(** One installed flow-table rule with its counters and timeouts. *)

open Sdn_openflow

type used
(** When the entry last matched a packet. {!touch} writes it for every
    packet, so it is held unboxed apart from the entry; read it with
    {!last_used}. *)

type t = {
  match_ : Of_match.t;
  priority : int;
  actions : Of_action.t list;
  cookie : int64;
  idle_timeout : float;  (** seconds; 0 = no idle expiry *)
  hard_timeout : float;  (** seconds; 0 = no hard expiry *)
  send_flow_rem : bool;  (** notify the controller on removal *)
  installed_at : float;
  used : used;
  mutable packets : int;
  mutable bytes : int;
}

val last_used : t -> float
(** When the entry last matched a packet (its install time until
    then). *)

val of_flow_mod : Of_flow_mod.t -> now:float -> t
(** Build an entry from an [Add]/[Modify] message at installation
    time. *)

val touch : t -> now:float -> bytes:int -> unit
(** Update counters for a matched packet. *)

val is_expired : t -> now:float -> bool
(** True once the idle or hard timeout has elapsed. *)

val to_stats : t -> now:float -> Of_stats.flow_stats
(** Render as an OpenFlow flow-stats record. *)

val expiry_reason : t -> now:float -> Of_flow_removed.reason option
(** Which timeout (if any) has elapsed; hard timeouts take precedence
    when both have, as in the OpenFlow specification. *)

val to_flow_removed :
  t -> now:float -> reason:Of_flow_removed.reason -> Of_flow_removed.t
(** Render as the FLOW_REMOVED notification body. *)
