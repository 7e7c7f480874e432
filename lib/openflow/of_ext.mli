(** Vendor (experimenter) extension carrying the paper's
    flow-granularity buffer protocol.

    The mechanism itself mostly reuses standard messages — the shared
    [buffer_id] rides in ordinary [PACKET_IN] / [PACKET_OUT] — but the
    paper notes the OpenFlow protocol "needs to be extended" for the
    switch-side behaviour. This module defines that extension as a
    proper OF 1.0 [VENDOR] message family:

    - the controller enables or disables flow-granularity buffering on
      a switch and configures the re-request policy of Algorithm 1
      (line 12): base timeout, exponential-backoff multiplier, delay
      cap and resend budget;
    - the controller can query buffer-pool statistics, which the
      monitoring example uses to plot buffer utilization live. *)

type stats = {
  units_in_use : int;
  units_total : int;
  flows_buffered : int;  (** flows currently holding a buffer unit *)
  packets_buffered : int;  (** packets across all chained units *)
  resends : int;  (** timeout-triggered repeated PACKET_INs *)
}

type backoff = {
  timeout : float;  (** base re-request timeout, seconds *)
  multiplier : float;  (** delay growth per unanswered request, >= 1 *)
  cap : float;  (** upper bound on the re-request delay, seconds *)
  max_resends : int;  (** unanswered requests before abandoning *)
}
(** The re-request policy. Durations are encoded as whole milliseconds
    and the multiplier as thousandths, so sub-millisecond precision is
    rounded on the wire. *)

val default_backoff : timeout:float -> backoff
(** The paper's fixed-period policy: [multiplier = 1], [cap = timeout],
    [max_resends = 3]. *)

type t =
  | Flow_buffer_enable of backoff
  | Flow_buffer_disable
  | Flow_buffer_stats_request
  | Flow_buffer_stats_reply of stats

val body_size : t -> int
val write_body : t -> Bytes.t -> int -> unit
val read_body : Bytes.t -> int -> len:int -> (t, string) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
