type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable samples : float array;
  mutable sample_count : int;
  keep_samples : bool;
}

let create ?(keep_samples = true) () =
  {
    count = 0;
    mean = 0.0;
    m2 = 0.0;
    sum = 0.0;
    min_v = nan;
    max_v = nan;
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
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.count = 1 then begin
    t.min_v <- x;
    t.max_v <- x
  end
  else begin
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x
  end;
  store_sample t x

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.mean

let variance t =
  if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)
let min t = t.min_v
let max t = t.max_v

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
    let na = float_of_int a.count and nb = float_of_int b.count in
    let n = na +. nb in
    let delta = b.mean -. a.mean in
    t.count <- a.count + b.count;
    t.sum <- a.sum +. b.sum;
    t.mean <- ((na *. a.mean) +. (nb *. b.mean)) /. n;
    t.m2 <- a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
    t.min_v <-
      (if a.count = 0 then b.min_v
       else if b.count = 0 then a.min_v
       else Stdlib.min a.min_v b.min_v);
    t.max_v <-
      (if a.count = 0 then b.max_v
       else if b.count = 0 then a.max_v
       else Stdlib.max a.max_v b.max_v);
    if keep then begin
      Array.iter (store_sample t) (samples a);
      Array.iter (store_sample t) (samples b)
    end
  end;
  t

let clear t =
  t.count <- 0;
  t.mean <- 0.0;
  t.m2 <- 0.0;
  t.sum <- 0.0;
  t.min_v <- nan;
  t.max_v <- nan;
  t.sample_count <- 0
