let fold_carries s =
  let s = ref s in
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let swap16 x = ((x land 0xFF) lsl 8) lor (x lsr 8)

(* The two 32-bit lanes of the little-endian 8-byte word at [i], summed:
   less than 2^33. *)
let[@inline] lanes buf i =
  let w = Bytes.get_int64_le buf i in
  (Int64.to_int w land 0xFFFF_FFFF)
  + Int64.to_int (Int64.shift_right_logical w 32)

(* Every carry is deferred into one 63-bit accumulator. A 32-byte step
   adds eight lanes, less than 2^35, so a region under 4 GiB (fewer than
   2^27 steps, then at most three 8-byte steps) stays below
   [max_int = 2^62 - 1]. *)
let max_len = (1 lsl 32) - 1

let sum buf off len =
  if off < 0 || len < 0 || len > max_len || off + len > Bytes.length buf then
    invalid_arg "Checksum.sum: region out of bounds";
  let stop = off + len in
  let s = ref 0 in
  let i = ref off in
  (* Little-endian lanes sum the byte-swapped 16-bit words; RFC 1071
     §2 lets the sum be taken in either byte order and its carries be
     deferred, so one fold and one swap recover the big-endian sum. *)
  while !i + 32 <= stop do
    s :=
      !s + lanes buf !i
      + lanes buf (!i + 8)
      + lanes buf (!i + 16)
      + lanes buf (!i + 24);
    i := !i + 32
  done;
  while !i + 8 <= stop do
    s := !s + lanes buf !i;
    i := !i + 8
  done;
  s := swap16 (fold_carries !s);
  while !i + 1 < stop do
    s := !s + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then s := !s + (Bytes.get_uint8 buf !i lsl 8);
  fold_carries !s

let add a b = fold_carries (a + b)

let finish s = lnot s land 0xFFFF

let over buf off len = finish (sum buf off len)

let verify buf off len = sum buf off len = 0xFFFF
