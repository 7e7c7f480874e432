type t = {
  mutable times : float array;
  mutable vals : float array;
  mutable n : int;
}

let create () = { times = Array.make 16 0.0; vals = Array.make 16 0.0; n = 0 }

let add t ~time ~value =
  if t.n = Array.length t.times then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0.0 in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.times <- grow t.times;
    t.vals <- grow t.vals
  end;
  t.times.(t.n) <- time;
  t.vals.(t.n) <- value;
  t.n <- t.n + 1

let length t = t.n

let points t = Array.init t.n (fun i -> (t.times.(i), t.vals.(i)))

let values t = Array.sub t.vals 0 t.n

let mean t =
  if t.n = 0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.vals.(i)
    done;
    !s /. float_of_int t.n
  end

let max_value t =
  if t.n = 0 then 0.0
  else begin
    let m = ref t.vals.(0) in
    for i = 1 to t.n - 1 do
      if t.vals.(i) > !m then m := t.vals.(i)
    done;
    !m
  end

module Weighted = struct
  type w = {
    start : float;
    mutable last_time : float;
    mutable last_value : float;
    mutable integral : float;
    mutable max_v : float;
  }

  let create ?(start = 0.0) ?(initial = 0.0) () =
    { start; last_time = start; last_value = initial; integral = 0.0; max_v = initial }

  let update w ~time ~value =
    if time < w.last_time then
      invalid_arg "Timeseries.Weighted.update: time went backwards";
    w.integral <- w.integral +. (w.last_value *. (time -. w.last_time));
    w.last_time <- time;
    w.last_value <- value;
    if value > w.max_v then w.max_v <- value

  let mean w ~until =
    (* The integral already extends to [last_time]; a caller-supplied
       [until] earlier than that would divide it by too short a span,
       so the observation window can only ever end at or after the
       last recorded update. *)
    let until = Float.max until w.last_time in
    let span = until -. w.start in
    if span <= 0.0 then w.last_value
    else begin
      let tail =
        if until > w.last_time then w.last_value *. (until -. w.last_time)
        else 0.0
      in
      (w.integral +. tail) /. span
    end

  let max_value w = w.max_v
  let current w = w.last_value
end
