open Sdn_sim

type policy = Fifo | Strict_priority | Drr of { quantum : int }

type queue_config = {
  queue_id : int32;
  priority : int;
  weight : int;
  capacity : int;
}

let default_queue = { queue_id = 0l; priority = 0; weight = 1; capacity = 512 }

type class_queue = {
  config : queue_config;
  frames : (float * Bytes.t) Queue.t;  (** enqueue time, frame *)
  mutable deficit : int;  (** DRR byte credit *)
  mutable sent : int;
  mutable dropped : int;
  delays : Stats.t;
  shared_cls : Buf_policy.cls option;
      (** when the scheduler draws on a shared buffer pool, the class
          this queue claims units from *)
}

type t = {
  engine : Engine.t;
  link : Bytes.t Link.t;
  policy : policy;
  classes : class_queue array;  (** strict-priority order, best first *)
  mutable drr_cursor : int;
  mutable drr_visit_credited : bool;
  mutable pump_armed : bool;
  mutable misrouted : int;
      (** frames sent with an unknown [queue_id]: typed-dropped, never
          enqueued (and in particular never into the top class) *)
}

let create ?shared engine ~link ~policy ~queues =
  if queues = [] then invalid_arg "Egress_queue.create: no queues";
  let ids = List.map (fun q -> q.queue_id) queues in
  if List.length (List.sort_uniq Int32.compare ids) <> List.length ids then
    invalid_arg "Egress_queue.create: duplicate queue ids";
  List.iter
    (fun q ->
      if q.weight <= 0 then invalid_arg "Egress_queue.create: weight must be positive";
      if q.capacity <= 0 then invalid_arg "Egress_queue.create: capacity must be positive")
    queues;
  let sorted =
    List.sort (fun a b -> Int.compare b.priority a.priority) queues
  in
  {
    engine;
    link;
    policy;
    classes =
      Array.of_list
        (List.map
           (fun config ->
             let shared_cls =
               match shared with
               | None -> None
               | Some (pool, prefix) ->
                   (* Registration follows the sorted class order, so a
                      given queue set always produces the same shared-
                      pool ledger regardless of input ordering. *)
                   Some
                     (Buf_policy.register pool
                        ~name:
                          (Printf.sprintf "%s/q%ld" prefix config.queue_id)
                        ~quota:config.capacity ~priority:config.priority)
             in
             {
               config;
               frames = Queue.create ();
               deficit = 0;
               sent = 0;
               dropped = 0;
               delays = Stats.create ();
               shared_cls;
             })
           sorted);
    drr_cursor = 0;
    drr_visit_credited = false;
    pump_armed = false;
    misrouted = 0;
  }

(* Exact lookup: [None] for an id no configured queue carries. The old
   fall-through to [classes.(0)] silently promoted misrouted frames to
   the top-priority class. *)
let class_for_opt t queue_id =
  let found = ref None in
  Array.iter
    (fun c ->
      if !found = None && Int32.equal c.config.queue_id queue_id then
        found := Some c)
    t.classes;
  !found

let class_for t queue_id =
  match class_for_opt t queue_id with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Egress_queue: unknown queue id %ld" queue_id)

let backlog t =
  Array.fold_left (fun acc c -> acc + Queue.length c.frames) 0 t.classes

(* Pick the next class to serve, or None if everything is empty. *)
let next_class t =
  match t.policy with
  | Fifo | Strict_priority ->
      (* Classes are stored best-priority-first; FIFO has one queue. *)
      let found = ref None in
      Array.iter
        (fun c -> if !found = None && not (Queue.is_empty c.frames) then found := Some c)
        t.classes;
      !found
  | Drr { quantum } ->
      let n = Array.length t.classes in
      if backlog t = 0 then None
      else begin
        (* Classic deficit round robin (Shreedhar & Varghese): each
           visit to a non-empty class credits it quantum * weight ONCE;
           the class is served while its deficit covers its head frame,
           then the cursor moves on. A class may need several rounds of
           credit for a large frame, so the hunt is bounded generously
           and falls back to the first non-empty class if exceeded. *)
        let advance () =
          t.drr_cursor <- (t.drr_cursor + 1) mod n;
          t.drr_visit_credited <- false
        in
        let max_steps = n * ((16_000 / max 1 quantum) + 2) in
        let rec hunt steps =
          if steps > max_steps then begin
            let found = ref None in
            Array.iter
              (fun c ->
                if !found = None && not (Queue.is_empty c.frames) then
                  found := Some c)
              t.classes;
            !found
          end
          else begin
            let c = t.classes.(t.drr_cursor) in
            if Queue.is_empty c.frames then begin
              c.deficit <- 0;
              advance ();
              hunt (steps + 1)
            end
            else begin
              if not t.drr_visit_credited then begin
                c.deficit <- c.deficit + (quantum * c.config.weight);
                t.drr_visit_credited <- true
              end;
              let _, head = Queue.peek c.frames in
              if c.deficit >= Bytes.length head then Some c
              else begin
                advance ();
                hunt (steps + 1)
              end
            end
          end
        in
        hunt 0
      end

let rec pump t =
  let now = Engine.now t.engine in
  let busy_until = Link.busy_until t.link in
  if busy_until > now then arm_at t busy_until
  else begin
    match next_class t with
    | None -> ()
    | Some c ->
        let enqueued_at, frame = Queue.pop c.frames in
        (match t.policy with
        | Drr _ ->
            c.deficit <- c.deficit - Bytes.length frame;
            if Queue.is_empty c.frames then begin
              (* The class emptied mid-visit: reset and move on. *)
              c.deficit <- 0;
              t.drr_cursor <-
                (t.drr_cursor + 1) mod Array.length t.classes;
              t.drr_visit_credited <- false
            end
        | Fifo | Strict_priority -> ());
        c.sent <- c.sent + 1;
        Stats.add c.delays (now -. enqueued_at);
        (match c.shared_cls with
        | Some cls ->
            Buf_policy.release cls;
            Buf_policy.note_delay cls (now -. enqueued_at)
        | None -> ());
        Link.send t.link ~size:(Bytes.length frame) frame;
        (* The wire is now busy until this frame finishes; come back. *)
        if backlog t > 0 then arm_at t (Link.busy_until t.link)
  end

and arm_at t time =
  if not t.pump_armed then begin
    t.pump_armed <- true;
    ignore
      (Engine.schedule_at t.engine time (fun () ->
           t.pump_armed <- false;
           pump t))
  end

(* One unit of queue room, from the shared pool when attached and from
   the class's own tail-drop capacity otherwise. Under the [Static]
   policy the two are equivalent: the class quota equals the configured
   capacity and the class length mirrors the queue length exactly. *)
let admit_frame c =
  match c.shared_cls with
  | Some cls -> Buf_policy.admit cls
  | None -> Queue.length c.frames < c.config.capacity

let send t ~queue_id frame =
  let target =
    match queue_id with
    | Some qid -> class_for_opt t qid
    | None -> (
        (* Plain Output actions (no queue selected) keep their historic
           default: queue 0 when configured, else the first class. *)
        match class_for_opt t 0l with
        | Some c -> Some c
        | None -> Some t.classes.(0))
  in
  match target with
  | None ->
      (* Unknown queue id: a typed drop, counted but never enqueued —
         promoting it to the top-priority class would let a bogus id
         jump the scheduling order. *)
      t.misrouted <- t.misrouted + 1
  | Some c ->
      if not (admit_frame c) then c.dropped <- c.dropped + 1
      else begin
        Queue.push (Engine.now t.engine, frame) c.frames;
        pump t
      end

let sent t ~queue_id = (class_for t queue_id).sent
let dropped t ~queue_id = (class_for t queue_id).dropped
let misrouted t = t.misrouted

let total_dropped t =
  Array.fold_left (fun acc c -> acc + c.dropped) 0 t.classes

let queue_delay_stats t ~queue_id = (class_for t queue_id).delays
