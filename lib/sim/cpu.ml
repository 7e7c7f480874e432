type job = { work : float; finish : unit -> unit }

(* Float state written at every job start and completion, in a
   float-only record so the writes store unboxed floats. *)
type busy_time = { mutable integral : float; mutable last_change : float }

type t = {
  engine : Engine.t;
  name : string;
  cores : int;
  service_scale : queue_len:int -> float;
  noise : unit -> float;
  (* Only jobs that found every core busy wait here. *)
  waiting : job Queue.t;
  (* Core [c] serves at most one job: [serving.(c)] says whether it
     does, [finishes.(c)] is that job's continuation, and
     [completions.(c)] is the core's one completion event. *)
  serving : bool array;
  finishes : (unit -> unit) array;
  mutable completions : Engine.event array;
  busy_time : busy_time;
  mutable busy : int;
  mutable jobs_done : int;
  mutable max_queue : int;
}

let idle () = ()

let account t =
  let now = Engine.now t.engine in
  let b = t.busy_time in
  b.integral <- b.integral +. (float_of_int t.busy *. (now -. b.last_change));
  b.last_change <- now

let free_core t =
  let c = ref 0 in
  while t.serving.(!c) do
    incr c
  done;
  !c

let rec start_job t work finish =
  account t;
  t.busy <- t.busy + 1;
  let scale = t.service_scale ~queue_len:(Queue.length t.waiting) in
  let effective = work *. scale *. t.noise () in
  let effective = Float.max 0.0 effective in
  let c = free_core t in
  t.serving.(c) <- true;
  t.finishes.(c) <- finish;
  Engine.arm_after t.completions.(c) ~delay:effective

and complete t c =
  account t;
  t.busy <- t.busy - 1;
  t.jobs_done <- t.jobs_done + 1;
  let finish = t.finishes.(c) in
  t.finishes.(c) <- idle;
  t.serving.(c) <- false;
  finish ();
  (* The finish continuation may itself have submitted work; only pull
     from the queue if a core is still free. *)
  if t.busy < t.cores && not (Queue.is_empty t.waiting) then begin
    let job = Queue.pop t.waiting in
    start_job t job.work job.finish
  end

let create engine ~name ~cores ?(service_scale = fun ~queue_len:_ -> 1.0)
    ?(noise = fun () -> 1.0) () =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  let t =
    {
      engine;
      name;
      cores;
      service_scale;
      noise;
      waiting = Queue.create ();
      serving = Array.make cores false;
      finishes = Array.make cores idle;
      completions = [||];
      busy_time = { integral = 0.0; last_change = Engine.now engine };
      busy = 0;
      jobs_done = 0;
      max_queue = 0;
    }
  in
  t.completions <-
    Array.init cores (fun c -> Engine.event engine (fun () -> complete t c));
  t

let submit t ~work_s finish =
  (* Negated so that NaN is refused here, not when the job starts. *)
  if not (work_s >= 0.0) then invalid_arg "Cpu.submit: work must be >= 0";
  if t.busy < t.cores then start_job t work_s finish
  else begin
    Queue.push { work = work_s; finish } t.waiting;
    if Queue.length t.waiting > t.max_queue then
      t.max_queue <- Queue.length t.waiting
  end

let name t = t.name
let cores t = t.cores
let queue_length t = Queue.length t.waiting
let in_service t = t.busy
let jobs_completed t = t.jobs_done

let busy_core_seconds t =
  let now = Engine.now t.engine in
  let b = t.busy_time in
  b.integral +. (float_of_int t.busy *. (now -. b.last_change))

let utilization_percent t ~integral_at_start ~start =
  let now = Engine.now t.engine in
  let span = now -. start in
  if span <= 0.0 then 0.0
  else (busy_core_seconds t -. integral_at_start) /. span *. 100.0

let max_queue_length t = t.max_queue
