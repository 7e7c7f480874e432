(** OpenFlow 1.0 [ERROR] message body.

    The switch model answers every request it does not serve with the
    error the 1.0 specification names for it, echoing the request's
    xid: a FLOW_MOD delete gets [Flow_mod_failed]/[bad_command], one
    asking for FLOW_REMOVED [Flow_mod_failed]/[eperm], a header-rewrite
    action [Bad_action]/[bad_type], a DESC or PORT stats request
    [Bad_request]/[bad_stat] and a filtered FLOW or AGGREGATE stats
    request [Bad_request]/[eperm]. *)

type error_type =
  | Hello_failed
  | Bad_request
  | Bad_action
  | Flow_mod_failed
  | Port_mod_failed
  | Queue_op_failed

type t = {
  error_type : error_type;
  code : int;
  data : Bytes.t;  (** at least 64 bytes of the offending message *)
}

(** Codes for [Flow_mod_failed]. *)
module Flow_mod_failed_code : sig
  val all_tables_full : int
  val overlap : int
  val eperm : int
  val bad_emerg_timeout : int
  val bad_command : int
  val unsupported : int
end

(** The code for [Bad_action] that the switch model raises: an action
    type it does not implement. *)
module Bad_action_code : sig
  val bad_type : int
end

(** Codes for [Hello_failed]. *)
module Hello_failed_code : sig
  val incompatible : int
  val eperm : int
end

(** Codes for [Bad_request]. *)
module Bad_request_code : sig
  val bad_version : int
  val bad_type : int
  val bad_stat : int
  val bad_vendor : int
  val bad_subtype : int
  val eperm : int
  val bad_len : int
  val buffer_empty : int
  val buffer_unknown : int
end

val make : error_type:error_type -> code:int -> ?data:Bytes.t -> unit -> t

val body_size : t -> int
val write_body : t -> Bytes.t -> int -> unit
val read_body : Bytes.t -> int -> len:int -> (t, string) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
