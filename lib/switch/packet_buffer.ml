open Sdn_sim

type t = {
  engine : Engine.t;
  units : Buffer_units.t;
  policy : Buf_policy.cls option;
  expiry : float;
  (* What each held unit holds, by slot. *)
  frames : Bytes.t array;
  expiry_timers : Engine.handle option array;
  held_at : Float.Array.t;
  mutable alloc_failures : int;
  mutable expired : int;
  mutable stale_takes : int;
}

type take_result = Taken of Bytes.t | Unknown_id

let create engine ?check ?policy ?(pool_name = "pkt_pool") ~capacity ~expiry
    ~reclaim_lag () =
  let units =
    Buffer_units.create engine ?check ?policy ~name:pool_name ~capacity
      ~reclaim_lag ()
  in
  {
    engine;
    units;
    policy;
    expiry;
    frames = Array.make capacity Bytes.empty;
    expiry_timers = Array.make capacity None;
    held_at = Float.Array.make capacity 0.0;
    alloc_failures = 0;
    expired = 0;
    stale_takes = 0;
  }

(* Forget slot [i]'s packet and cancel its expiry. *)
let clear t i =
  (match t.expiry_timers.(i) with Some h -> Engine.cancel h | None -> ());
  t.expiry_timers.(i) <- None;
  t.frames.(i) <- Bytes.empty

let alloc t ~frame =
  let i = Buffer_units.claim t.units in
  if i < 0 then begin
    t.alloc_failures <- t.alloc_failures + 1;
    None
  end
  else begin
    let id = Buffer_units.id t.units i in
    t.frames.(i) <- frame;
    Float.Array.set t.held_at i (Engine.now t.engine);
    t.expiry_timers.(i) <-
      Some
        (Engine.schedule t.engine ~delay:t.expiry (fun () ->
             (* Still held by this allocation? Then nobody released it
                in time: drop the packet. *)
             if Buffer_units.held_slot t.units id = i then begin
               t.expired <- t.expired + 1;
               clear t i;
               Buffer_units.expire t.units i
             end));
    Some id
  end

let take t id =
  let i = Buffer_units.held_slot t.units id in
  if i < 0 then begin
    t.stale_takes <- t.stale_takes + 1;
    Unknown_id
  end
  else begin
    let frame = t.frames.(i) in
    clear t i;
    (match t.policy with
    | Some cls ->
        Buf_policy.note_delay cls
          (Engine.now t.engine -. Float.Array.get t.held_at i)
    | None -> ());
    Buffer_units.release t.units i ~packets:1;
    Taken frame
  end

let wipe t =
  let packets = ref 0 in
  Buffer_units.wipe t.units ~held:(fun i ->
      clear t i;
      t.expired <- t.expired + 1;
      incr packets);
  !packets

let units t = t.units
let alloc_failures t = t.alloc_failures
let expired t = t.expired
let stale_takes t = t.stale_takes
