(** OpenFlow 1.0 actions. *)

open Sdn_net

type t =
  | Output of { port : int; max_len : int }
      (** Forward out a port; [max_len] bounds the bytes sent to the
          controller when [port = CONTROLLER]. *)
  | Set_vlan_vid of int
  | Set_vlan_pcp of int
  | Strip_vlan
  | Set_dl_src of Mac.t
  | Set_dl_dst of Mac.t
  | Set_nw_src of Ip.t
  | Set_nw_dst of Ip.t
  | Set_nw_tos of int
  | Set_tp_src of int
  | Set_tp_dst of int
  | Enqueue of { port : int; queue_id : int32 }

val output : int -> t
(** [output port] with [max_len] 0xFFFF. *)

val list_size : t list -> int

val write_list : t list -> Bytes.t -> int -> int
(** Serialize consecutively; returns the offset past the last action. *)

val read_list : Bytes.t -> int -> len:int -> (t list, string) result
(** Parse exactly [len] bytes of actions starting at the offset. *)

val rewrites : t list -> bool
(** Whether the list holds a header rewrite ([Set_dl_*], [Set_nw_*] or
    [Set_tp_*]). Where it does not, {!rewrite} returns its packet
    itself, so a caller holding only the frame need not parse it. *)

val rewrite : t list -> Packet.t -> Packet.t
(** Apply the header rewrites in order. A list without any returns the
    packet itself (physically equal), so a caller re-encodes only what
    was rewritten. [Output] and [Enqueue] are the caller's to walk. *)

val equal : t -> t -> bool
val pp_list : Format.formatter -> t list -> unit
