(** An open-addressed hash table keyed on a fixed number of int words:
    the switch's one exact-match structure, under the microflow cache
    ({!Microflow}'s five words), the flow table's exact index and the
    flow buffer's chain index (the 5-tuple's three).

    A key is the first [words] ints of an [int array] the caller owns
    and fills, so no operation allocates a key. Keys are hashed and
    compared as ints: no [caml_hash], no polymorphic compare. Only the
    first {!replace} and one that grows the table allocate. *)

type 'v t

val create : words:int -> 'v -> 'v t
(** [create ~words absent] is an empty table. {!find} returns [absent]
    for a key the table lacks, and unused value slots hold it. *)

val find : 'v t -> int array -> 'v

val replace : 'v t -> int array -> 'v -> unit
(** Bind the key, replacing its value if bound. The table starts at 16
    slots and doubles to stay at most half full. *)

val remove : 'v t -> int array -> unit
(** Unbind the key, if bound. The rest of its probe run shifts back
    over the freed slot, so no tombstone is left. *)

val clear : 'v t -> unit
(** Unbind every key in constant time, by bumping the table's
    generation. Dropped values stay referenced until their slots are
    reused or the table grows. *)

val length : 'v t -> int
