type job = { work : float; finish : unit -> unit }

type t = {
  engine : Engine.t;
  name : string;
  cores : int;
  service_scale : queue_len:int -> float;
  noise : unit -> float;
  waiting : job Queue.t;
  mutable busy : int;
  mutable integral : float;
  mutable last_change : float;
  mutable jobs_done : int;
  mutable max_queue : int;
}

let create engine ~name ~cores ?(service_scale = fun ~queue_len:_ -> 1.0)
    ?(noise = fun () -> 1.0) () =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  {
    engine;
    name;
    cores;
    service_scale;
    noise;
    waiting = Queue.create ();
    busy = 0;
    integral = 0.0;
    last_change = Engine.now engine;
    jobs_done = 0;
    max_queue = 0;
  }

let account t =
  let now = Engine.now t.engine in
  t.integral <- t.integral +. (float_of_int t.busy *. (now -. t.last_change));
  t.last_change <- now

let rec start_job t job =
  account t;
  t.busy <- t.busy + 1;
  let scale = t.service_scale ~queue_len:(Queue.length t.waiting) in
  let effective = job.work *. scale *. t.noise () in
  let effective = Float.max 0.0 effective in
  ignore
    (Engine.schedule t.engine ~delay:effective (fun () -> complete t job))

and complete t job =
  account t;
  t.busy <- t.busy - 1;
  t.jobs_done <- t.jobs_done + 1;
  job.finish ();
  (* The finish continuation may itself have submitted work; only pull
     from the queue if a core is still free. *)
  if t.busy < t.cores && not (Queue.is_empty t.waiting) then
    start_job t (Queue.pop t.waiting)

let submit t ~work_s finish =
  if work_s < 0.0 then invalid_arg "Cpu.submit: negative work";
  let job = { work = work_s; finish } in
  if t.busy < t.cores then start_job t job
  else begin
    Queue.push job t.waiting;
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
  t.integral +. (float_of_int t.busy *. (now -. t.last_change))

let utilization_percent t ~integral_at_start ~start =
  let now = Engine.now t.engine in
  let span = now -. start in
  if span <= 0.0 then 0.0
  else (busy_core_seconds t -. integral_at_start) /. span *. 100.0

let max_queue_length t = t.max_queue

