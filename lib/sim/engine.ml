type handle = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  (* Current slot in the owning engine's heap; [-1] once popped,
     removed or never queued. *)
  mutable heap_index : int;
  engine : t;
}

(* The queue is a binary min-heap on (time, seq) laid out in [heap]:
   slots [0, size) hold the queued events, every other slot holds
   [sentinel]. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable heap : handle array;
  mutable size : int;
  (* Planned events not yet in the heap: every plan keeps only its
     next event queued (see [schedule_plan]). *)
  mutable backlog : int;
}

(* Fills every slot at or past [size], so a slot write stores a handle
   and never allocates an option cell. Shared by every engine, in every
   domain, and never written: sifts write only slots below [size], and
   it is never handed out, so nothing can cancel or reindex it. *)
let sentinel =
  {
    time = infinity;
    seq = max_int;
    action = ignore;
    cancelled = true;
    heap_index = -1;
    engine =
      {
        clock = 0.0;
        next_seq = 0;
        processed = 0;
        heap = [||];
        size = 0;
        backlog = 0;
      };
  }

(* Initial capacity and shrink floor of the heap array. *)
let min_capacity = 1024

(* Strict dispatch order. Times are never NaN (schedule_at rejects
   it), so this is exactly the order [Float.compare] then
   [Int.compare] on (time, seq) gives. *)
let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let[@inline] place heap i ev =
  heap.(i) <- ev;
  ev.heap_index <- i

(* Both sifts move a hole instead of swapping pairs: each displaced
   event is written once, and [ev] only where the hole comes to rest. *)
let rec sift_up heap i ev =
  if i = 0 then place heap 0 ev
  else
    let parent = (i - 1) / 2 in
    let p = heap.(parent) in
    if before ev p then begin
      place heap i p;
      sift_up heap parent ev
    end
    else place heap i ev

let rec sift_down heap size i ev =
  let l = (2 * i) + 1 in
  if l >= size then place heap i ev
  else
    let r = l + 1 in
    let c = if r < size && before heap.(r) heap.(l) then r else l in
    let child = heap.(c) in
    if before child ev then begin
      place heap i child;
      sift_down heap size c ev
    end
    else place heap i ev

let resize t capacity =
  let heap = Array.make capacity sentinel in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

(* Shrink the heap array once occupancy falls to a quarter, so a burst
   (an outage scenario queueing tens of thousands of timers) does not
   pin its high-water memory forever. Halving at one-quarter leaves a
   factor-two hysteresis band, so push/pop around the boundary cannot
   thrash between grow and shrink. *)
let maybe_shrink t =
  let cap = Array.length t.heap in
  if cap > min_capacity && t.size * 4 <= cap then
    resize t (max min_capacity (cap / 2))

(* Remove the event in slot [i] (below [size]): the last event fills
   the hole and sifts whichever way restores the order. *)
let remove_at t i =
  let heap = t.heap in
  let last = t.size - 1 in
  let ev = heap.(last) in
  heap.(last) <- sentinel;
  t.size <- last;
  if i < last then begin
    if i > 0 && before ev heap.((i - 1) / 2) then sift_up heap i ev
    else sift_down heap last i ev
  end;
  maybe_shrink t

let pop_min t =
  let top = t.heap.(0) in
  top.heap_index <- -1;
  remove_at t 0;
  top

let create ?(now = 0.0) () =
  {
    clock = now;
    next_seq = 0;
    processed = 0;
    heap = Array.make min_capacity sentinel;
    size = 0;
    backlog = 0;
  }

let now t = t.clock

let push t ev =
  if t.size = Array.length t.heap then resize t (2 * t.size);
  let i = t.size in
  t.size <- i + 1;
  sift_up t.heap i ev

let schedule_at t time action =
  (* Negated so that a NaN time, which compares false both ways, is
     refused too. *)
  if not (time >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is not at or after now %g"
         time t.clock);
  let ev =
    { time; seq = t.next_seq; action; cancelled = false; heap_index = -1;
      engine = t }
  in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  ev

(* A plan of [n] events takes the [n] sequence numbers that [n] calls
   to [schedule_at] in index order would have taken, so every event
   keeps the (time, seq) key it would have had in the heap. Times are
   nondecreasing and seqs increase, so the plan's next event is the
   least of its remaining ones and the only one that can be the queue
   minimum: queueing it alone changes no dispatch. It pushes its
   successor before its action runs, so an action that raises still
   leaves the rest of the plan queued. Events run in index order, so
   one shared action reads its index from a cursor. *)
let schedule_plan t times f =
  let n = Array.length times in
  if n > 0 then begin
    (* Negated, as in [schedule_at], so that NaN is refused too. *)
    if not (times.(0) >= t.clock) then
      invalid_arg
        (Printf.sprintf
           "Engine.schedule_plan: time %g is not at or after now %g"
           times.(0) t.clock);
    for i = 1 to n - 1 do
      if not (times.(i) >= times.(i - 1)) then
        invalid_arg
          (Printf.sprintf
             "Engine.schedule_plan: time %g at index %d is not at or after \
              time %g"
             times.(i) i times.(i - 1))
    done;
    let base = t.next_seq in
    t.next_seq <- base + n;
    t.backlog <- t.backlog + n - 1;
    let next = ref 0 in
    let rec fire () =
      let i = !next in
      next := i + 1;
      if i + 1 < n then begin
        t.backlog <- t.backlog - 1;
        push t (planned (i + 1))
      end;
      f i
    and planned i =
      { time = times.(i); seq = base + i; action = fire; cancelled = false;
        heap_index = -1; engine = t }
    in
    push t (planned 0)
  end

let schedule t ~delay action =
  if not (delay >= 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: delay %g is negative or NaN" delay);
  schedule_at t (t.clock +. delay) action

(* True O(log n) removal: a cancelled event leaves the heap
   immediately instead of lingering as a tombstone until popped. Long
   chaos runs cancel echo keepalives and backoff timers constantly;
   without real removal the queue grows monotonically and [pending]
   drifts away from the live event count. *)
let cancel handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    let i = handle.heap_index in
    if i >= 0 then begin
      handle.heap_index <- -1;
      remove_at handle.engine i
    end
  end

let is_cancelled handle = handle.cancelled

let exec t ev =
  t.processed <- t.processed + 1;
  ev.action ()

let step t =
  if t.size = 0 then false
  else begin
    let ev = pop_min t in
    t.clock <- ev.time;
    exec t ev;
    true
  end

(* Dispatch every event carrying the earliest pending timestamp in one
   batch: the clock is advanced once and the events run back-to-back in
   seq order (including events an action schedules at that same
   instant), without re-checking any run limit in between. *)
let step_batch t =
  if t.size = 0 then 0
  else begin
    let ev = pop_min t in
    let time = ev.time in
    t.clock <- time;
    exec t ev;
    let count = ref 1 in
    while t.size > 0 && t.heap.(0).time = time do
      exec t (pop_min t);
      incr count
    done;
    !count
  end

(* The clock never moves backwards: a limit below [now] dispatches
   nothing and leaves the clock where it is. *)
let rec run ?until t =
  match until with
  | None -> if step_batch t > 0 then run t
  | Some limit ->
      if t.size > 0 && t.heap.(0).time <= limit then begin
        (* The whole batch shares one timestamp <= limit, so no
           per-event limit check is needed. *)
        ignore (step_batch t);
        run ~until:limit t
      end
      else if t.clock < limit then t.clock <- limit

let pending t = t.size + t.backlog

let processed t = t.processed
