(* The 64-bit state lives in 8 bytes rather than a mutable [int64]
   field: a field would box every new state into a fresh block, and the
   generator would promote one per draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix state

let split t =
  let seed = next_int64 t in
  create (mix seed)

(* 30 uniform random bits as a non-negative [int]. *)
let bits30 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then bits30 t mod bound
  else
    let v = Int64.shift_right_logical (next_int64 t) 1 in
    Int64.to_int (Int64.rem v (Int64.of_int bound))

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

(* 53 uniform bits mapped to [0, 1). *)
let[@inline] unit_float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u < 1e-300 then 1e-300 else u in
  -.mean *. log u

(* Box-Muller, with a loop rather than a recursive closure so that a
   draw allocates nothing but its result. [unit_float t] is
   [float t 1.0]: multiplying by 1 is exact. *)
let[@inline] normal t ~mu ~sigma =
  let u1 = ref (unit_float t) in
  while !u1 < 1e-300 do
    u1 := unit_float t
  done;
  let u2 = unit_float t in
  mu +. (sigma *. sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2))

let gaussian t ~mu ~sigma = normal t ~mu ~sigma

let lognormal_factor t ~sigma = exp (normal t ~mu:0.0 ~sigma)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
