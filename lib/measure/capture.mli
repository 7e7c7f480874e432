(** Control-channel sniffer (the tcpdump of the reproduction).

    Observes every OpenFlow message on the control path, in both
    directions, counting messages and bytes, and messages per message
    type. The
    control-path-load metric of the paper's Figs. 2 and 9 is
    [bytes * 8 / observation window] per direction.

    Byte counts can include a fixed per-message encapsulation overhead
    (Ethernet + IP + TCP framing of the OpenFlow session), as a sniffer
    on the wire would see. *)

open Sdn_openflow

type direction = To_controller | To_switch

type t

val create : ?encap_overhead:int -> unit -> t
(** [encap_overhead] defaults to 66 bytes (Ethernet 14 + IPv4 20 +
    TCP 32 with timestamps) per message. *)

val observe : t -> direction -> time:float -> Bytes.t -> unit
(** Record one message (classified by peeking its header). *)

val messages : t -> direction -> int
val bytes : t -> direction -> int
(** Wire bytes including encapsulation. *)

val payload_bytes : t -> direction -> int
(** OpenFlow bytes only. *)

val messages_of_type : t -> direction -> Of_wire.Msg_type.t -> int

val first_time : t -> direction -> float option
val last_time : t -> direction -> float option

val load_mbps : t -> direction -> window:float -> float
(** Average control load over an observation window (seconds). *)
