(* The float accumulators, in a record of floats only, which OCaml
   stores unboxed: an update writes a float in place. As fields of [t],
   which mixes floats with ints, each update would allocate a box and
   store it through the write barrier. *)
type moments = {
  mutable mean : float;
  mutable m2 : float;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = {
  mutable count : int;
  m : moments;
  mutable samples : float array;
  mutable sample_count : int;
  keep_samples : bool;
}

let create ?(keep_samples = true) () =
  {
    count = 0;
    m = { mean = 0.0; m2 = 0.0; sum = 0.0; min_v = nan; max_v = nan };
    samples = (if keep_samples then Array.make 16 0.0 else [||]);
    sample_count = 0;
    keep_samples;
  }

let store_sample t x =
  if t.keep_samples then begin
    if t.sample_count = Array.length t.samples then begin
      let bigger = Array.make (2 * Stdlib.max 1 (Array.length t.samples)) 0.0 in
      Array.blit t.samples 0 bigger 0 t.sample_count;
      t.samples <- bigger
    end;
    t.samples.(t.sample_count) <- x;
    t.sample_count <- t.sample_count + 1
  end

let add t x =
  let m = t.m in
  t.count <- t.count + 1;
  m.sum <- m.sum +. x;
  let delta = x -. m.mean in
  m.mean <- m.mean +. (delta /. float_of_int t.count);
  m.m2 <- m.m2 +. (delta *. (x -. m.mean));
  if t.count = 1 then begin
    m.min_v <- x;
    m.max_v <- x
  end
  else begin
    if x < m.min_v then m.min_v <- x;
    if x > m.max_v then m.max_v <- x
  end;
  store_sample t x

let count t = t.count
let sum t = t.m.sum
let mean t = if t.count = 0 then 0.0 else t.m.mean

let variance t =
  if t.count < 2 then 0.0 else t.m.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)
let min t = t.m.min_v
let max t = t.m.max_v

let samples t = Array.sub t.samples 0 t.sample_count

let percentile t p =
  if not t.keep_samples then
    invalid_arg "Stats.percentile: samples were not kept";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  if t.sample_count = 0 then nan
  else
  let sorted = samples t in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median t = percentile t 50.0

let merge a b =
  let keep = a.keep_samples && b.keep_samples in
  let t = create ~keep_samples:keep () in
  if a.count + b.count > 0 then begin
    let am = a.m and bm = b.m and m = t.m in
    let na = float_of_int a.count and nb = float_of_int b.count in
    let n = na +. nb in
    let delta = bm.mean -. am.mean in
    t.count <- a.count + b.count;
    m.sum <- am.sum +. bm.sum;
    m.mean <- ((na *. am.mean) +. (nb *. bm.mean)) /. n;
    m.m2 <- am.m2 +. bm.m2 +. (delta *. delta *. na *. nb /. n);
    m.min_v <-
      (if a.count = 0 then bm.min_v
       else if b.count = 0 then am.min_v
       else Stdlib.min am.min_v bm.min_v);
    m.max_v <-
      (if a.count = 0 then bm.max_v
       else if b.count = 0 then am.max_v
       else Stdlib.max am.max_v bm.max_v);
    if keep then begin
      Array.iter (store_sample t) (samples a);
      Array.iter (store_sample t) (samples b)
    end
  end;
  t

let clear t =
  let m = t.m in
  t.count <- 0;
  m.mean <- 0.0;
  m.m2 <- 0.0;
  m.sum <- 0.0;
  m.min_v <- nan;
  m.max_v <- nan;
  t.sample_count <- 0
