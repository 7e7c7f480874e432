(** IPv4 addresses. *)

type t
(** An IPv4 address (32 bits). *)

val make : int -> int -> int -> int -> t
(** [make a b c d] is [a.b.c.d]; each component in [\[0, 255\]]. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_string : string -> (t, string) result
(** Parse dotted-quad notation. *)

val of_string_exn : string -> t

val to_string : t -> string

val any : t
(** [0.0.0.0]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val write : t -> Bytes.t -> int -> unit
val read : Bytes.t -> int -> t

val matches_prefix : prefix:t -> bits:int -> t -> bool
(** [matches_prefix ~prefix ~bits addr] tests whether [addr] falls in
    [prefix/bits]. [bits] in [\[0, 32\]]; 0 matches everything. Used by
    wildcarded OpenFlow matches. *)
