open Sdn_sim

(* [Reclaiming] carries the deferred-reclaim timer so [wipe] can cancel
   it: otherwise the stale callback would free the slot's next unit
   before that unit's own reclaim lag ran out. *)
type state = Free | Held | Reclaiming of Engine.handle

type t = {
  engine : Engine.t;
  check : Sdn_check.Check.t option;
  policy : Buf_policy.cls option;
  name : string;
  reclaim_lag : float;
  states : state array;
  generations : int array;
  free : int array;  (** a stack of free slots; [free.(n_free - 1)] is next *)
  mutable n_free : int;
  mutable in_use : int;
  occupancy : Timeseries.Weighted.w;
}

let create engine ?check ?policy ~name ~capacity ~reclaim_lag () =
  if capacity <= 0 || capacity > 0xFFFF then
    invalid_arg "Buffer_units.create: capacity out of range";
  {
    engine;
    check;
    policy;
    name;
    reclaim_lag;
    states = Array.make capacity Free;
    generations = Array.make capacity 0;
    free = Array.init capacity (fun k -> capacity - 1 - k);
    n_free = capacity;
    in_use = 0;
    occupancy =
      Timeseries.Weighted.create ~start:(Engine.now engine) ~initial:0.0 ();
  }

(* buffer_id layout: the generation in bits 16-30, the slot index in
   the low 16 bits. *)
let id t i = Int32.of_int ((t.generations.(i) lsl 16) lor i)

let held_slot t id =
  let v = Int32.to_int id in
  let i = v land 0xFFFF in
  if i >= Array.length t.states then -1
  else
    match t.states.(i) with
    | Held when t.generations.(i) = (v lsr 16) land 0x7FFF -> i
    | Held | Free | Reclaiming _ -> -1

(* Report slot [i]'s unit to the checker's buffer ledger, if armed. *)
let ledger t i note =
  match t.check with
  | Some check ->
      note check ~time:(Engine.now t.engine) ~pool:t.name ~id:(id t i)
  | None -> ()

let note_occupancy t =
  Timeseries.Weighted.update t.occupancy ~time:(Engine.now t.engine)
    ~value:(float_of_int t.in_use)

let return_to_policy t =
  match t.policy with Some cls -> Buf_policy.release cls | None -> ()

(* Free slot [i] now: its generation moves on, so every id issued for
   the unit it held goes stale. *)
let reclaim t i =
  t.states.(i) <- Free;
  t.generations.(i) <- (t.generations.(i) + 1) land 0x7FFF;
  t.free.(t.n_free) <- i;
  t.n_free <- t.n_free + 1;
  t.in_use <- t.in_use - 1;
  return_to_policy t;
  note_occupancy t

let claim t =
  (* Policy admission first: the sharing discipline may refuse even
     when a slot is free (the class's share is spent). *)
  let admitted =
    match t.policy with Some cls -> Buf_policy.admit cls | None -> true
  in
  if not admitted then -1
  else if t.n_free = 0 then begin
    return_to_policy t;
    -1
  end
  else begin
    t.n_free <- t.n_free - 1;
    let i = t.free.(t.n_free) in
    t.states.(i) <- Held;
    t.in_use <- t.in_use + 1;
    note_occupancy t;
    ledger t i Sdn_check.Check.note_buffer_alloc;
    i
  end

let append t i =
  ledger t i Sdn_check.Check.note_buffer_append;
  id t i

let release t i ~packets =
  (match t.check with
  | Some check ->
      Sdn_check.Check.note_buffer_release check ~time:(Engine.now t.engine)
        ~pool:t.name ~id:(id t i) ~packets
  | None -> ());
  t.states.(i) <-
    Reclaiming
      (Engine.schedule t.engine ~delay:t.reclaim_lag (fun () ->
           match t.states.(i) with
           | Reclaiming _ -> reclaim t i
           | Free | Held -> ()))

let expire t i =
  ledger t i Sdn_check.Check.note_buffer_expire;
  reclaim t i

let wipe t ~held =
  Array.iteri
    (fun i state ->
      match state with
      | Held ->
          held i;
          expire t i
      | Reclaiming timer ->
          Engine.cancel timer;
          reclaim t i
      | Free -> ())
    t.states;
  match t.check with
  | Some check ->
      Sdn_check.Check.note_crash_wipe check ~time:(Engine.now t.engine)
        ~pool:t.name
  | None -> ()

let capacity t = Array.length t.states
let in_use t = t.in_use
let mean_in_use t ~until = Timeseries.Weighted.mean t.occupancy ~until
let max_in_use t = int_of_float (Timeseries.Weighted.max_value t.occupancy)
