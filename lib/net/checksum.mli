(** RFC 1071 Internet checksum (one's-complement sum of 16-bit words).

    {!sum} reads the region eight bytes at a time: each bounds-checked
    little-endian load splits into two 32-bit lanes, all carries are
    deferred into one 63-bit accumulator, and a single fold and byte
    swap at the end give the big-endian sum (RFC 1071 §2: the sum is
    independent of byte order). A tail of up to seven bytes is summed
    16 bits at a time. The result equals the plain 16-bit loop's on
    every region, including the choice between the 0 and 0xFFFF
    representatives: 0 only for an all-zero region. *)

val sum : Bytes.t -> int -> int -> int
(** [sum buf off len] is the one's-complement running sum (not yet
    complemented) of the region, as an int in [\[0, 0xFFFF\]]. An odd
    trailing byte is padded with zero, per the RFC. Raises
    [Invalid_argument] if the region is out of bounds or is 4 GiB or
    longer. *)

val add : int -> int -> int
(** Combine two running sums with end-around carry. *)

val finish : int -> int
(** One's-complement the running sum into a wire checksum. An all-zero
    result is returned as is (UDP maps it to 0xFFFF itself). *)

val over : Bytes.t -> int -> int -> int
(** [over buf off len] is [finish (sum buf off len)]. *)

val verify : Bytes.t -> int -> int -> bool
(** A region that embeds its own checksum sums to 0xFFFF; [verify]
    checks that. *)
