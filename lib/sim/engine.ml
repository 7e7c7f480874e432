type handle = {
  action : unit -> unit;
  (* Slot in the owning engine's registry while registered; [-1] once
     released. The registry moves events between slots, so this is
     rewritten whenever the event moves. *)
  mutable id : int;
  (* [cancelled] and [one_shot] bits. *)
  mutable flags : int;
  engine : t;
}

(* The registry holds every registered event in [handles.(0 .. nreg -
   1)], with its heap slot in [pos] ([-1] while not queued); every
   [handles] slot at or past [nreg] holds [vacant]. A one-shot event
   ([schedule_at]) is registered while queued and released when it runs
   or is cancelled; a re-armable one ([event]) stays registered for the
   engine's life, and a plan's until its last event runs.

   The queue is a binary min-heap on (time, seq). Slot [i] below [size]
   holds the event with id [ids.(i)] and key [(times.(i), seqs.(i))].
   All three arrays are unboxed, so a sift moves only floats and ints
   and never stores a pointer: a handle is written into the registry
   only when its event registers or leaves it. An event keeps no key
   of its own and can be queued again with a new one. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable ids : int array;
  mutable size : int;
  mutable handles : handle array;
  mutable pos : int array;
  mutable nreg : int;
  (* Fills every [handles] slot at or past [nreg], so a released event
     is not kept alive. Never registered, queued or handed out. *)
  vacant : handle;
  (* Seqs taken by [reserve] whose events are not queued yet: a plan's
     later injections, the messages behind a link's head. *)
  mutable backlog : int;
}

type event = handle

let cancelled = 1

(* Leaves the registry when popped. *)
let one_shot = 2

(* Initial capacity and shrink floor of the heap and registry arrays. *)
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
  let id = t.ids.(from) in
  t.ids.(into) <- id;
  t.pos.(id) <- into

let[@inline] settle t i time seq id =
  Float.Array.set t.times i time;
  t.seqs.(i) <- seq;
  t.ids.(i) <- id;
  t.pos.(id) <- i

let sift_up t ~hole ~src id =
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
  settle t !i time seq id

let sift_down t ~hole ~src id =
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
  settle t !i time seq id

let resize_heap t capacity =
  let n = t.size in
  let times = Float.Array.create capacity in
  Float.Array.blit t.times 0 times 0 n;
  let seqs = Array.make capacity 0 in
  Array.blit t.seqs 0 seqs 0 n;
  let ids = Array.make capacity 0 in
  Array.blit t.ids 0 ids 0 n;
  t.times <- times;
  t.seqs <- seqs;
  t.ids <- ids

let resize_registry t capacity =
  let n = t.nreg in
  let handles = Array.make capacity t.vacant in
  Array.blit t.handles 0 handles 0 n;
  let pos = Array.make capacity (-1) in
  Array.blit t.pos 0 pos 0 n;
  t.handles <- handles;
  t.pos <- pos

(* Shrink the arrays once occupancy falls to a quarter, so a burst (an
   outage scenario queueing tens of thousands of timers) does not pin
   its high-water memory forever. Halving at one-quarter leaves a
   factor-two hysteresis band, so push/pop around the boundary cannot
   thrash between grow and shrink. *)
let[@inline] shrunk ~used cap =
  if cap > min_capacity && used * 4 <= cap then max min_capacity (cap / 2)
  else cap

(* Remove the event in slot [i] (below [size]): the last event fills
   the hole and sifts whichever way restores the order. *)
let remove_at t i =
  t.pos.(t.ids.(i)) <- -1;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let time = Float.Array.get t.times last and seq = t.seqs.(last) in
    let id = t.ids.(last) in
    let p = (i - 1) / 2 in
    if
      i > 0
      &&
      let pt = Float.Array.get t.times p in
      time < pt || (time = pt && seq < t.seqs.(p))
    then sift_up t ~hole:i ~src:last id
    else sift_down t ~hole:i ~src:last id
  end;
  let cap = Float.Array.length t.times in
  let cap' = shrunk ~used:last cap in
  if cap' < cap then resize_heap t cap'

(* Take the queue minimum out and return its id: the heap half of a
   pop, which stores no pointer. The registry half, releasing a
   one-shot event, is [exec_min]'s. *)
let pop_min t =
  let id = t.ids.(0) in
  remove_at t 0;
  id

let register t ev =
  let id = t.nreg in
  if id = Array.length t.handles then resize_registry t (2 * id);
  t.handles.(id) <- ev;
  t.pos.(id) <- -1;
  t.nreg <- id + 1;
  ev.id <- id

(* The registry stays dense: the last registered event moves into the
   freed id, so ids stay below [nreg] and the arrays can shrink. [ev]
   is not queued. *)
let release t ev =
  let id = ev.id and last = t.nreg - 1 in
  if id < last then begin
    let moved = t.handles.(last) in
    t.handles.(id) <- moved;
    moved.id <- id;
    let p = t.pos.(last) in
    t.pos.(id) <- p;
    if p >= 0 then t.ids.(p) <- id
  end;
  t.handles.(last) <- t.vacant;
  t.nreg <- last;
  ev.id <- -1;
  let cap = Array.length t.handles in
  let cap' = shrunk ~used:last cap in
  if cap' < cap then resize_registry t cap'

let create ?(now = 0.0) () =
  let rec t =
    {
      clock = now;
      next_seq = 0;
      processed = 0;
      times = Float.Array.create min_capacity;
      seqs = Array.make min_capacity 0;
      ids = Array.make min_capacity 0;
      size = 0;
      handles = [||];
      pos = Array.make min_capacity (-1);
      nreg = 0;
      vacant;
      backlog = 0;
    }
  and vacant = { action = ignore; id = -1; flags = 0; engine = t } in
  t.handles <- Array.make min_capacity vacant;
  t

let now t = t.clock

(* Queue the event with id [id] under key [(time, seq)]. The key is
   written to the first free slot, where the sift reads it back
   unboxed. *)
let[@inline] push t time seq id =
  if t.size = Float.Array.length t.times then resize_heap t (2 * t.size);
  let i = t.size in
  t.size <- i + 1;
  Float.Array.set t.times i time;
  t.seqs.(i) <- seq;
  sift_up t ~hole:i ~src:i id

let event t action =
  let ev = { action; id = -1; flags = 0; engine = t } in
  register t ev;
  ev

let[@inline] fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let reserve t =
  t.backlog <- t.backlog + 1;
  fresh_seq t

(* Shared by [arm] and [arm_after]. *)
let[@inline] check_idle ev =
  if ev.engine.pos.(ev.id) >= 0 then
    invalid_arg "Engine.arm: event already queued"

let arm ev time ~seq =
  let t = ev.engine in
  (* Negated so that a NaN time, which compares false both ways, is
     refused too. *)
  if not (time >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.arm: time %g is not at or after now %g" time
         t.clock);
  check_idle ev;
  push t time seq ev.id;
  t.backlog <- t.backlog - 1

let arm_after ev ~delay =
  let t = ev.engine in
  if not (delay >= 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.arm_after: delay %g is negative or NaN" delay);
  check_idle ev;
  push t (t.clock +. delay) (fresh_seq t) ev.id

let schedule_at t time action =
  (* Negated so that a NaN time, which compares false both ways, is
     refused too. *)
  if not (time >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is not at or after now %g"
         time t.clock);
  let ev = { action; id = -1; flags = one_shot; engine = t } in
  register t ev;
  push t time (fresh_seq t) ev.id;
  ev

(* A plan of [n] events takes the [n] sequence numbers that [n] calls
   to [schedule_at] in index order would have taken, so every event
   keeps the (time, seq) key it would have had in the heap. Times are
   nondecreasing and seqs increase, so the plan's next event is the
   least of its remaining ones and the only one that can be the queue
   minimum: queueing it alone changes no dispatch. One event serves the
   whole plan: each time it runs it queues itself again with its
   successor's key before the action runs, so an action that raises
   still leaves the rest of the plan queued. Its last event is queued
   one-shot, so the finished plan leaves the registry. Events run in
   index order, so the action reads its index from a cursor. *)
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
              if i + 2 = n then ev.flags <- one_shot;
              push t (times.(i + 1)) (base + i + 1) ev.id
            end;
            f i);
        id = -1;
        flags = (if n = 1 then one_shot else 0);
        engine = t;
      }
    in
    register t ev;
    push t (times.(0)) base ev.id
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
   drifts away from the live event count. A handle is one-shot, so it
   keeps an id exactly while queued: a fired or cancelled one has none,
   and its old id, now another event's, is never touched. *)
let cancel handle =
  if handle.flags land cancelled = 0 then begin
    handle.flags <- handle.flags lor cancelled;
    if handle.id >= 0 then begin
      let t = handle.engine in
      remove_at t t.pos.(handle.id);
      release t handle
    end
  end

let is_cancelled handle = handle.flags land cancelled <> 0

(* Take the queue minimum out and run it. The caller has set the clock
   to its time. *)
let exec_min t =
  let ev = t.handles.(pop_min t) in
  if ev.flags land one_shot <> 0 then release t ev;
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
