(* The messages in flight on a jitter-free link, oldest first, in a
   power-of-two ring. Only the oldest is queued in the engine, as the
   link's [arrival] event; the rest wait here with the key each took
   when it was sent. *)
type 'a ring = {
  arrival : Engine.event;
  (* The link's first payload. A delivered slot is overwritten with it,
     so the ring does not keep delivered payloads reachable. *)
  filler : 'a;
  mutable payloads : 'a array;
  mutable due : float array;
  mutable seqs : int array;
  mutable sizes : int array;
  mutable lost : bool array;
  mutable head : int;
  mutable count : int;
}

(* Float state written on every send, in a float-only record so the
   writes store unboxed floats and allocate nothing. *)
type wire = { mutable busy_until : float }

type 'a t = {
  engine : Engine.t;
  name : string;
  bandwidth_bps : float;
  propagation_s : float;
  capture : (time:float -> size:int -> 'a -> unit) option;
  faults : Faults.t option;
  receiver : 'a -> unit;
  wire : wire;
  (* No jitter: messages arrive in send order, through [ring]. *)
  in_order : bool;
  mutable ring : 'a ring option;
  mutable bytes_sent : int;
  mutable messages_sent : int;
  mutable messages_lost : int;
  mutable backlog_bytes : int;
}

let create engine ~name ~bandwidth_bps ~propagation_s ?capture ?faults
    ~receiver () =
  (* Negated so that NaN, which compares false both ways, is refused
     too: the ring needs nondecreasing delivery times. *)
  if not (bandwidth_bps > 0.0) then
    invalid_arg "Link.create: bandwidth must be positive";
  if not (propagation_s >= 0.0) then
    invalid_arg "Link.create: propagation must be >= 0";
  let in_order =
    match faults with
    | None -> true
    | Some plan -> (Faults.spec plan).Faults.jitter_s = 0.0
  in
  {
    engine;
    name;
    bandwidth_bps;
    propagation_s;
    capture;
    faults;
    receiver;
    wire = { busy_until = Engine.now engine };
    in_order;
    ring = None;
    bytes_sent = 0;
    messages_sent = 0;
    messages_lost = 0;
    backlog_bytes = 0;
  }

let land_message t ~size ~lost payload =
  t.backlog_bytes <- t.backlog_bytes - size;
  if lost then t.messages_lost <- t.messages_lost + 1 else t.receiver payload

(* The head's arrival: it queues its successor before the receiver
   runs, so a receiver that raises leaves the rest of the ring queued. *)
let arrive t =
  match t.ring with
  | None -> ()
  | Some r ->
      let i = r.head in
      let payload = r.payloads.(i) and size = r.sizes.(i) and lost = r.lost.(i) in
      r.payloads.(i) <- r.filler;
      let next = (i + 1) land (Array.length r.payloads - 1) in
      r.head <- next;
      r.count <- r.count - 1;
      if r.count > 0 then Engine.arm r.arrival r.due.(next) ~seq:r.seqs.(next);
      land_message t ~size ~lost payload

let new_ring t filler =
  let capacity = 8 in
  {
    arrival = Engine.event t.engine (fun () -> arrive t);
    filler;
    payloads = Array.make capacity filler;
    due = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    sizes = Array.make capacity 0;
    lost = Array.make capacity false;
    head = 0;
    count = 0;
  }

(* Double the ring, unrolling it so the head lands in slot 0. *)
let grow r =
  let capacity = Array.length r.payloads in
  let unroll a fill =
    let b = Array.make (2 * capacity) fill in
    let tail = capacity - r.head in
    Array.blit a r.head b 0 tail;
    Array.blit a 0 b tail r.head;
    b
  in
  r.payloads <- unroll r.payloads r.filler;
  r.due <- unroll r.due 0.0;
  r.seqs <- unroll r.seqs 0;
  r.sizes <- unroll r.sizes 0;
  r.lost <- unroll r.lost false;
  r.head <- 0

let send t ~size payload =
  if size < 0 then invalid_arg "Link.send: negative size";
  let now = Engine.now t.engine in
  let start = Float.max now t.wire.busy_until in
  (* [Units.transmission_time], written out: a float returned across
     the module boundary would be boxed. *)
  let tx = float_of_int size *. 8.0 /. t.bandwidth_bps in
  t.wire.busy_until <- start +. tx;
  t.bytes_sent <- t.bytes_sent + size;
  t.messages_sent <- t.messages_sent + 1;
  t.backlog_bytes <- t.backlog_bytes + size;
  (match t.capture with
  | Some f -> f ~time:start ~size payload
  | None -> ());
  let lost, jitter_s =
    match t.faults with
    | None -> (false, 0.0)
    | Some plan -> (
        match Faults.judge plan ~now with
        | Faults.Drop _ -> (true, 0.0)
        | Faults.Deliver { jitter_s } -> (false, jitter_s))
  in
  let deliver_at = t.wire.busy_until +. t.propagation_s +. jitter_s in
  if t.in_order then begin
    (* [busy_until] never decreases and the propagation delay is fixed,
       so [deliver_at] never decreases either: the ring stays sorted by
       (time, seq), and its head is the only member that can be the
       queue minimum. *)
    let r =
      match t.ring with
      | Some r -> r
      | None ->
          let r = new_ring t payload in
          t.ring <- Some r;
          r
    in
    let seq = Engine.reserve t.engine in
    if r.count = Array.length r.payloads then grow r;
    let i = (r.head + r.count) land (Array.length r.payloads - 1) in
    r.payloads.(i) <- payload;
    r.due.(i) <- deliver_at;
    r.seqs.(i) <- seq;
    r.sizes.(i) <- size;
    r.lost.(i) <- lost;
    r.count <- r.count + 1;
    if r.count = 1 then Engine.arm r.arrival deliver_at ~seq
  end
  else
    (* Jitter reorders messages in flight: each is its own event. *)
    ignore
      (Engine.schedule_at t.engine deliver_at (fun () ->
           land_message t ~size ~lost payload))

let name t = t.name
let bytes_sent t = t.bytes_sent
let messages_sent t = t.messages_sent
let messages_lost t = t.messages_lost
let busy_until t = t.wire.busy_until
let backlog_bytes t = t.backlog_bytes

let utilization t ~since ~until_ =
  let span = until_ -. since in
  if span <= 0.0 then 0.0
  else begin
    let busy =
      Units.bytes_to_bits t.bytes_sent /. t.bandwidth_bps
    in
    Float.min 1.0 (busy /. span)
  end

let reset_counters t =
  t.bytes_sent <- 0;
  t.messages_sent <- 0
