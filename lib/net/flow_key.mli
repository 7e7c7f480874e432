(** The 5-tuple identifying a transport flow.

    The paper's flow-granularity buffer mechanism keys its shared
    [buffer_id] map on exactly this tuple
    [(src_ip, src_port, dst_ip, dst_port, protocol)] (Algorithm 1). *)

type t = {
  proto : int;
  src_ip : Ip.t;
  dst_ip : Ip.t;
  src_port : int;
  dst_port : int;
}

val make :
  proto:int -> src_ip:Ip.t -> dst_ip:Ip.t -> src_port:int -> dst_port:int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** Hash tables keyed by flow. *)
module Table : Hashtbl.S with type key = t
