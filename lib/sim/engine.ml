type handle = {
  action : unit -> unit;
  mutable cancelled : bool;
  (* Current slot in the owning engine's heap; [-1] while not queued. *)
  mutable heap_index : int;
  engine : t;
}

(* The queue is a binary min-heap on (time, seq). Slot [i] below [size]
   holds event [evs.(i)] with key [(times.(i), seqs.(i))]; every [evs]
   slot at or past [size] holds [sentinel]. The keys live in unboxed
   arrays beside the events, so an event keeps no key of its own and
   can be queued again with a new one. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable evs : handle array;
  mutable size : int;
  (* Seqs taken by [reserve] whose events are not queued yet: a plan's
     later injections, the messages behind a link's head. *)
  mutable backlog : int;
}

type event = handle

(* Fills every [evs] slot at or past [size], so a slot write stores a
   handle and never allocates an option cell. Shared by every engine,
   in every domain, and never written: sifts write only slots below
   [size], and it is never handed out, so nothing can cancel, arm or
   reindex it. *)
let sentinel =
  {
    action = ignore;
    cancelled = true;
    heap_index = -1;
    engine =
      {
        clock = 0.0;
        next_seq = 0;
        processed = 0;
        times = Float.Array.create 0;
        seqs = [||];
        evs = [||];
        size = 0;
        backlog = 0;
      };
  }

(* Initial capacity and shrink floor of the heap arrays. *)
let min_capacity = 256

(* Both sifts move a hole instead of swapping pairs: each displaced
   event is written once, and the moving one only where the hole comes
   to rest. The moving key is read from slot [src] before the hole
   moves, so it never crosses a call boxed. Times are never NaN
   (arming refuses it), so the inline [<]/[=] give exactly the order
   [Float.compare] then [Int.compare] give on (time, seq). *)

let[@inline] move t ~from ~into =
  Float.Array.set t.times into (Float.Array.get t.times from);
  t.seqs.(into) <- t.seqs.(from);
  let ev = t.evs.(from) in
  t.evs.(into) <- ev;
  ev.heap_index <- into

let sift_up t ~hole ~src ev =
  let time = Float.Array.get t.times src and seq = t.seqs.(src) in
  let i = ref hole in
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Float.Array.get t.times parent in
    if time < pt || (time = pt && seq < t.seqs.(parent)) then begin
      move t ~from:parent ~into:!i;
      i := parent
    end
    else rising := false
  done;
  Float.Array.set t.times !i time;
  t.seqs.(!i) <- seq;
  t.evs.(!i) <- ev;
  ev.heap_index <- !i

let sift_down t ~hole ~src ev =
  let time = Float.Array.get t.times src and seq = t.seqs.(src) in
  let size = t.size in
  let i = ref hole in
  let sinking = ref true in
  while !sinking && (2 * !i) + 1 < size do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c =
      if r < size then begin
        let rt = Float.Array.get t.times r and lt = Float.Array.get t.times l in
        if rt < lt || (rt = lt && t.seqs.(r) < t.seqs.(l)) then r else l
      end
      else l
    in
    let ct = Float.Array.get t.times c in
    if ct < time || (ct = time && t.seqs.(c) < seq) then begin
      move t ~from:c ~into:!i;
      i := c
    end
    else sinking := false
  done;
  Float.Array.set t.times !i time;
  t.seqs.(!i) <- seq;
  t.evs.(!i) <- ev;
  ev.heap_index <- !i

let resize t capacity =
  let n = t.size in
  let times = Float.Array.create capacity in
  Float.Array.blit t.times 0 times 0 n;
  let seqs = Array.make capacity 0 in
  Array.blit t.seqs 0 seqs 0 n;
  let evs = Array.make capacity sentinel in
  Array.blit t.evs 0 evs 0 n;
  t.times <- times;
  t.seqs <- seqs;
  t.evs <- evs

(* Shrink the heap arrays once occupancy falls to a quarter, so a burst
   (an outage scenario queueing tens of thousands of timers) does not
   pin its high-water memory forever. Halving at one-quarter leaves a
   factor-two hysteresis band, so push/pop around the boundary cannot
   thrash between grow and shrink. *)
let maybe_shrink t =
  let cap = Array.length t.evs in
  if cap > min_capacity && t.size * 4 <= cap then
    resize t (max min_capacity (cap / 2))

(* Remove the event in slot [i] (below [size]): the last event fills
   the hole and sifts whichever way restores the order. *)
let remove_at t i =
  let last = t.size - 1 in
  let ev = t.evs.(last) in
  t.evs.(last) <- sentinel;
  t.size <- last;
  if i < last then begin
    let time = Float.Array.get t.times last and seq = t.seqs.(last) in
    let p = (i - 1) / 2 in
    if
      i > 0
      &&
      let pt = Float.Array.get t.times p in
      time < pt || (time = pt && seq < t.seqs.(p))
    then sift_up t ~hole:i ~src:last ev
    else sift_down t ~hole:i ~src:last ev
  end;
  maybe_shrink t

let create ?(now = 0.0) () =
  {
    clock = now;
    next_seq = 0;
    processed = 0;
    times = Float.Array.create min_capacity;
    seqs = Array.make min_capacity 0;
    evs = Array.make min_capacity sentinel;
    size = 0;
    backlog = 0;
  }

let now t = t.clock

(* Queue [ev] with key [(time, seq)]. The key is written to the first
   free slot, where the sift reads it back unboxed. *)
let[@inline] push t time seq ev =
  if t.size = Array.length t.evs then resize t (2 * t.size);
  let i = t.size in
  t.size <- i + 1;
  Float.Array.set t.times i time;
  t.seqs.(i) <- seq;
  sift_up t ~hole:i ~src:i ev

let event t action = { action; cancelled = false; heap_index = -1; engine = t }

let[@inline] fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let reserve t =
  t.backlog <- t.backlog + 1;
  fresh_seq t

(* Shared by [arm] and [arm_after]: [time] has passed the caller's
   check. *)
let[@inline] arm_checked ev time seq =
  if ev.heap_index >= 0 then invalid_arg "Engine.arm: event already queued";
  push ev.engine time seq ev

let arm ev time ~seq =
  let t = ev.engine in
  (* Negated so that a NaN time, which compares false both ways, is
     refused too. *)
  if not (time >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.arm: time %g is not at or after now %g" time
         t.clock);
  arm_checked ev time seq;
  t.backlog <- t.backlog - 1

let arm_after ev ~delay =
  let t = ev.engine in
  if not (delay >= 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.arm_after: delay %g is negative or NaN" delay);
  arm_checked ev (t.clock +. delay) (fresh_seq t)

let schedule_at t time action =
  (* Negated so that a NaN time, which compares false both ways, is
     refused too. *)
  if not (time >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is not at or after now %g"
         time t.clock);
  let ev = event t action in
  push t time (fresh_seq t) ev;
  ev

(* A plan of [n] events takes the [n] sequence numbers that [n] calls
   to [schedule_at] in index order would have taken, so every event
   keeps the (time, seq) key it would have had in the heap. Times are
   nondecreasing and seqs increase, so the plan's next event is the
   least of its remaining ones and the only one that can be the queue
   minimum: queueing it alone changes no dispatch. One event serves the
   whole plan: each time it runs it queues itself again with its
   successor's key before the action runs, so an action that raises
   still leaves the rest of the plan queued. Events run in index
   order, so the action reads its index from a cursor. *)
let schedule_plan t times f =
  let n = Array.length times in
  if n > 0 then begin
    (* Negated, as in [schedule_at], so that NaN is refused too. *)
    if not (times.(0) >= t.clock) then
      invalid_arg
        (Printf.sprintf
           "Engine.schedule_plan: time %g is not at or after now %g"
           (times.(0)) t.clock);
    for i = 1 to n - 1 do
      if not (times.(i) >= times.(i - 1)) then
        invalid_arg
          (Printf.sprintf
             "Engine.schedule_plan: time %g at index %d is not at or after \
              time %g"
             (times.(i)) i
             (times.(i - 1)))
    done;
    let base = t.next_seq in
    t.next_seq <- base + n;
    t.backlog <- t.backlog + n - 1;
    let next = ref 0 in
    let rec ev =
      {
        action =
          (fun () ->
            let i = !next in
            next := i + 1;
            if i + 1 < n then begin
              t.backlog <- t.backlog - 1;
              push t (times.(i + 1)) (base + i + 1) ev
            end;
            f i);
        cancelled = false;
        heap_index = -1;
        engine = t;
      }
    in
    push t (times.(0)) base ev
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

(* Take the queue minimum out and run it. The caller has set the clock
   to its time. *)
let exec_min t =
  let ev = t.evs.(0) in
  ev.heap_index <- -1;
  remove_at t 0;
  t.processed <- t.processed + 1;
  ev.action ()

let step t =
  if t.size = 0 then false
  else begin
    t.clock <- Float.Array.get t.times 0;
    exec_min t;
    true
  end

(* Dispatch every event carrying the earliest pending timestamp in one
   batch: the clock is advanced once and the events run back-to-back in
   seq order (including events an action schedules at that same
   instant), without re-checking any run limit in between. *)
let step_batch t =
  if t.size = 0 then 0
  else begin
    let time = Float.Array.get t.times 0 in
    t.clock <- time;
    exec_min t;
    let count = ref 1 in
    while t.size > 0 && Float.Array.get t.times 0 = time do
      exec_min t;
      incr count
    done;
    !count
  end

(* The clock never moves backwards: a limit below [now] dispatches
   nothing and leaves the clock where it is. Loops rather than
   recursion, so the optional limit is not wrapped again per batch. *)
let run ?until t =
  match until with
  | None ->
      while step_batch t > 0 do
        ()
      done
  | Some limit ->
      (* A whole batch shares one timestamp <= limit, so no per-event
         limit check is needed. *)
      while t.size > 0 && Float.Array.get t.times 0 <= limit do
        ignore (step_batch t)
      done;
      if t.clock < limit then t.clock <- limit

let pending t = t.size + t.backlog

let processed t = t.processed
