(* Host-time measurement and order statistics. Every number this
   benchmark reports is host time or a count: the simulator is
   deterministic, so simulated statistics never vary between runs. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Util.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads printed here match
   the ones an outside checker computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Util.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* Host nanoseconds per call of [f]: repeats it until [min_ns] have
   elapsed, so sub-microsecond replays still read above clock noise. *)
let ns_per_call ?(min_ns = 2e7) f =
  let t0 = now_ns () in
  let rec go n =
    f ();
    let dt = now_ns () -. t0 in
    if dt < min_ns then go (n + 1) else dt /. float_of_int n
  in
  go 1

(* ---- Host-speed reference ----

   This benchmark's hosts are shared: for 0.2 s to several seconds at
   a time everything runs up to 1.8x slower, and the quiet baseline
   drifts by ~10% over minutes. A fixed kernel with the simulator's
   character — hashing, a cache-resident table walk, small short-lived
   allocations — follows the drift: over 150 s of such phases a fixed
   experiment's time varied with a 9% interquartile range, its ratio
   to this kernel's time with 4%. In the slow stretches the kernel
   slows more than some workloads do, so the best-of metrics divide
   quiet-window times by its quiet-window time (E2e). The kernel's allocations all die young,
   so the simulator's heap does not leak into its time, and it is
   benchmark code, so no change to the program moves it. *)

let reference_table =
  lazy
    (let t = Hashtbl.create 8192 in
     for i = 0 to 4095 do
       Hashtbl.replace t i ((i * 7919) land 4095)
     done;
     t)

(* Host milliseconds of one pass of the reference kernel. *)
let reference_ms () =
  let table = Lazy.force reference_table in
  let b = Bytes.make 256 'x' in
  let t0 = now_ns () in
  let acc = ref 0 in
  for i = 0 to 200_000 do
    let key = (i * 2654435761) land 4095 in
    let v = Hashtbl.find table key in
    let l = [ v; i; key ] in
    let s = Bytes.sub b (i land 127) 64 in
    let f = float_of_int v *. 1.0001 in
    acc := (!acc + List.fold_left ( + ) 0 l + Char.code (Bytes.get s 3) + int_of_float f) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc);
  (now_ns () -. t0) /. 1e6

(* The kernel's time on a calm 2-core host of the kind the bounds were
   calibrated on; normalised timings read as milliseconds there. *)
let reference_nominal_ms = 8.0

(* Minor-heap words one call of [f] allocates. [Gc.minor_words]
   includes in-flight young-heap allocation, so it is exact on the one
   domain the benchmark runs on. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0
