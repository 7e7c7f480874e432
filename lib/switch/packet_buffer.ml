open Sdn_sim

type slot_state =
  | Free
  | Held of { frame : Bytes.t; expiry_handle : Engine.handle; held_at : float }
  | Reclaiming of { reclaim_handle : Engine.handle }
      (** carries the deferred-reclaim timer so {!wipe} can cancel it —
          otherwise a stale callback could shorten the reclaim lag of a
          slot re-allocated after the wipe *)

type slot = { mutable state : slot_state; mutable generation : int }

type t = {
  engine : Engine.t;
  check : Sdn_check.Check.t option;
  policy : Buf_policy.cls option;
  pool_name : string;
  capacity : int;
  expiry : float;
  reclaim_lag : float;
  slots : slot array;
  mutable free : int list;
  mutable in_use : int;
  occupancy : Timeseries.Weighted.w;
  mutable alloc_failures : int;
  mutable expired : int;
  mutable stale_takes : int;
}

type take_result = Taken of Bytes.t | Unknown_id

(* buffer_id layout: generation in the high bits, slot index in the low
   16. Generations disambiguate a reused slot from a stale id. *)
let id_of ~generation ~slot =
  Int32.logor
    (Int32.shift_left (Int32.of_int (generation land 0x7FFF)) 16)
    (Int32.of_int (slot land 0xFFFF))

let slot_of_id id = Int32.to_int (Int32.logand id 0xFFFFl)
let generation_of_id id = Int32.to_int (Int32.shift_right_logical id 16) land 0x7FFF

let create engine ?check ?policy ?(pool_name = "pkt_pool") ~capacity ~expiry
    ~reclaim_lag () =
  if capacity <= 0 || capacity > 0xFFFF then
    invalid_arg "Packet_buffer.create: capacity out of range";
  {
    engine;
    check;
    policy;
    pool_name;
    capacity;
    expiry;
    reclaim_lag;
    slots = Array.init capacity (fun _ -> { state = Free; generation = 0 });
    free = List.init capacity (fun i -> i);
    in_use = 0;
    occupancy =
      Timeseries.Weighted.create ~start:(Engine.now engine) ~initial:0.0 ();
    alloc_failures = 0;
    expired = 0;
    stale_takes = 0;
  }

let note_occupancy t =
  Timeseries.Weighted.update t.occupancy ~time:(Engine.now t.engine)
    ~value:(float_of_int t.in_use)

(* Report a buffer-ledger event to the invariant checker, if armed. *)
let checked t f =
  match t.check with
  | Some check -> f check ~time:(Engine.now t.engine) ~pool:t.pool_name
  | None -> ()

let release_slot t i =
  let slot = t.slots.(i) in
  slot.state <- Free;
  slot.generation <- (slot.generation + 1) land 0x7FFF;
  t.free <- i :: t.free;
  t.in_use <- t.in_use - 1;
  (match t.policy with Some cls -> Buf_policy.release cls | None -> ());
  note_occupancy t

let alloc t ~frame =
  (* Policy admission first: the sharing discipline may refuse even
     when a physical slot is free (its share is exhausted), or grant a
     unit the static quota would have refused. *)
  let admitted =
    match t.policy with Some cls -> Buf_policy.admit cls | None -> true
  in
  if not admitted then begin
    t.alloc_failures <- t.alloc_failures + 1;
    None
  end
  else
    match t.free with
    | [] ->
        (match t.policy with
        | Some cls -> Buf_policy.release cls
        | None -> ());
        t.alloc_failures <- t.alloc_failures + 1;
        None
    | i :: rest ->
        t.free <- rest;
        let slot = t.slots.(i) in
        let generation = slot.generation in
        let expiry_handle =
          Engine.schedule t.engine ~delay:t.expiry (fun () ->
              (* Still held by the same allocation? Then nobody released
                 it in time: drop the packet. *)
              match slot.state with
              | Held _ when slot.generation = generation ->
                  t.expired <- t.expired + 1;
                  checked t
                    (Sdn_check.Check.note_buffer_expire
                       ~id:(id_of ~generation ~slot:i));
                  release_slot t i
              | Held _ | Free | Reclaiming _ -> ())
        in
        slot.state <-
          Held { frame; expiry_handle; held_at = Engine.now t.engine };
        t.in_use <- t.in_use + 1;
        note_occupancy t;
        let id = id_of ~generation ~slot:i in
        checked t (Sdn_check.Check.note_buffer_alloc ~id);
        Some id

let take t id =
  let i = slot_of_id id in
  if i < 0 || i >= t.capacity then Unknown_id
  else begin
    let slot = t.slots.(i) in
    match slot.state with
    | Held { frame; expiry_handle; held_at }
      when slot.generation = generation_of_id id ->
        Engine.cancel expiry_handle;
        checked t (Sdn_check.Check.note_buffer_release ~id ~packets:1);
        (match t.policy with
        | Some cls -> Buf_policy.note_delay cls (Engine.now t.engine -. held_at)
        | None -> ());
        let reclaim_handle =
          Engine.schedule t.engine ~delay:t.reclaim_lag (fun () ->
              match slot.state with
              | Reclaiming _ -> release_slot t i
              | Free | Held _ -> ())
        in
        slot.state <- Reclaiming { reclaim_handle };
        Taken frame
    | Held _ | Free | Reclaiming _ ->
        t.stale_takes <- t.stale_takes + 1;
        Unknown_id
  end

let wipe t =
  let packets = ref 0 in
  (* Index order keeps the checker's expiry notes byte-reproducible. *)
  Array.iteri
    (fun i slot ->
      match slot.state with
      | Held { expiry_handle; _ } ->
          Engine.cancel expiry_handle;
          t.expired <- t.expired + 1;
          checked t
            (Sdn_check.Check.note_buffer_expire
               ~id:(id_of ~generation:slot.generation ~slot:i));
          release_slot t i;
          incr packets
      | Reclaiming { reclaim_handle } ->
          (* Reclaim immediately — and cancel the deferred timer, so it
             cannot fire against a future allocation of this slot and
             silently shorten that allocation's reclaim lag. *)
          Engine.cancel reclaim_handle;
          release_slot t i
      | Free -> ())
    t.slots;
  !packets

let capacity t = t.capacity
let in_use t = t.in_use
let mean_in_use t ~until = Timeseries.Weighted.mean t.occupancy ~until
let max_in_use t = int_of_float (Timeseries.Weighted.max_value t.occupancy)
let alloc_failures t = t.alloc_failures
let expired t = t.expired
let stale_takes t = t.stale_takes
