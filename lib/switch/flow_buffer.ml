open Sdn_sim
open Sdn_net

type unit_state = {
  key : Flow_key.t;
  first_miss_time : float;
  mutable frames_rev : Bytes.t list;
  mutable resend_count : int;
  mutable resend_handle : Engine.handle option;
}

(* [Reclaiming] carries the deferred-reclaim timer so [wipe] can
   cancel it: otherwise the stale callback would free the slot's next
   allocation before its own reclaim lag ran out. *)
type slot_state = Free | Held of unit_state | Reclaiming of Engine.handle

type slot = { mutable state : slot_state; mutable generation : int }

type t = {
  engine : Engine.t;
  check : Sdn_check.Check.t option;
  pool_name : string;
  capacity : int;
  reclaim_lag : float;
  mutable resend_timeout : float;
  mutable resend_multiplier : float;
  mutable resend_cap : float;
  mutable resend_jitter : float;
  mutable max_resends : int;
  rng : Rng.t option;
  on_resend : buffer_id:int32 -> key:Flow_key.t -> first_frame:Bytes.t -> unit;
  slots : slot array;
  mutable free : int list;
  by_key : int Flow_key.Table.t;  (** flow -> slot index (the buffer_id map) *)
  mutable in_use : int;
  mutable packets : int;
  occupancy : Timeseries.Weighted.w;
  mutable alloc_failures : int;
  mutable resends : int;
  mutable drops : int;
  mutable abandoned_flows : int;
  mutable recovered_flows : int;
  recovery_delays : Stats.t;
  mutable frozen : bool;
  mutable freezes : int;
  mutable chains_frozen : int;
  mutable chains_resumed : int;
  mutable expired_on_resume : int;
}

type add_result = First of int32 | Appended of int32 | No_space

type take_result = Taken of Bytes.t list | Unknown_id

let id_of ~generation ~slot =
  Int32.logor
    (Int32.shift_left (Int32.of_int (generation land 0x7FFF)) 16)
    (Int32.of_int (slot land 0xFFFF))

let slot_of_id id = Int32.to_int (Int32.logand id 0xFFFFl)
let generation_of_id id = Int32.to_int (Int32.shift_right_logical id 16) land 0x7FFF

let create engine ?check ?(pool_name = "flow_pool") ~capacity ~reclaim_lag
    ~resend_timeout ?(resend_multiplier = 1.0) ?(resend_cap = infinity)
    ?(resend_jitter = 0.0) ?rng ~max_resends ~on_resend () =
  if capacity <= 0 || capacity > 0xFFFF then
    invalid_arg "Flow_buffer.create: capacity out of range";
  if resend_multiplier < 1.0 then
    invalid_arg "Flow_buffer.create: multiplier below 1";
  if resend_jitter < 0.0 || resend_jitter >= 1.0 then
    invalid_arg "Flow_buffer.create: jitter fraction out of [0, 1)";
  if resend_jitter > 0.0 && rng = None then
    invalid_arg "Flow_buffer.create: jitter needs an rng";
  {
    engine;
    check;
    pool_name;
    capacity;
    reclaim_lag;
    resend_timeout;
    resend_multiplier;
    resend_cap;
    resend_jitter;
    max_resends;
    rng;
    on_resend;
    slots = Array.init capacity (fun _ -> { state = Free; generation = 0 });
    free = List.init capacity (fun i -> i);
    by_key = Flow_key.Table.create 64;
    in_use = 0;
    packets = 0;
    occupancy =
      Timeseries.Weighted.create ~start:(Engine.now engine) ~initial:0.0 ();
    alloc_failures = 0;
    resends = 0;
    drops = 0;
    abandoned_flows = 0;
    recovered_flows = 0;
    recovery_delays = Stats.create ();
    frozen = false;
    freezes = 0;
    chains_frozen = 0;
    chains_resumed = 0;
    expired_on_resume = 0;
  }

let set_backoff t ~resend_timeout ~resend_multiplier ~resend_cap ~max_resends =
  if resend_multiplier >= 1.0 then begin
    t.resend_timeout <- resend_timeout;
    t.resend_multiplier <- resend_multiplier;
    t.resend_cap <- resend_cap;
    t.max_resends <- max_resends
  end

(* Delay before re-request number [attempt] (0-based): exponential in
   the attempt, capped, with optional multiplicative jitter so that a
   thundering herd of timed-out flows desynchronises. *)
let resend_delay t ~attempt =
  let base =
    t.resend_timeout *. (t.resend_multiplier ** float_of_int attempt)
  in
  let capped = Float.min base t.resend_cap in
  match (t.rng, t.resend_jitter) with
  | Some rng, j when j > 0.0 ->
      capped *. (1.0 +. Rng.uniform rng ~lo:(-.j) ~hi:j)
  | _ -> capped

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
  note_occupancy t

let drop_unit t i (u : unit_state) =
  (match u.resend_handle with Some h -> Engine.cancel h | None -> ());
  checked t
    (Sdn_check.Check.note_buffer_expire
       ~id:(id_of ~generation:t.slots.(i).generation ~slot:i));
  t.drops <- t.drops + List.length u.frames_rev;
  t.abandoned_flows <- t.abandoned_flows + 1;
  t.packets <- t.packets - List.length u.frames_rev;
  Flow_key.Table.remove t.by_key u.key;
  release_slot t i

let rec arm_resend t i (u : unit_state) ~generation =
  let handle =
    Engine.schedule t.engine ~delay:(resend_delay t ~attempt:u.resend_count)
      (fun () ->
        let slot = t.slots.(i) in
        match slot.state with
        | Held held when slot.generation = generation && held == u ->
            if u.resend_count >= t.max_resends then drop_unit t i u
            else begin
              u.resend_count <- u.resend_count + 1;
              t.resends <- t.resends + 1;
              (match List.rev u.frames_rev with
              | first :: _ ->
                  t.on_resend ~buffer_id:(id_of ~generation ~slot:i) ~key:u.key
                    ~first_frame:first
              | [] -> ());
              arm_resend t i u ~generation
            end
        | Held _ | Free | Reclaiming _ -> ())
  in
  u.resend_handle <- Some handle

let add t ~key ~frame =
  match Flow_key.Table.find_opt t.by_key key with
  | Some i -> (
      let slot = t.slots.(i) in
      match slot.state with
      | Held u ->
          u.frames_rev <- frame :: u.frames_rev;
          t.packets <- t.packets + 1;
          let id = id_of ~generation:slot.generation ~slot:i in
          checked t (Sdn_check.Check.note_buffer_append ~id);
          Appended id
      | Free | Reclaiming _ ->
          (* Unreachable: [by_key] never points at a non-held slot —
             take_all and drop_unit both remove the key from the map
             before the slot leaves Held. *)
          assert false (* lint: allow partial-exit *))
  | None -> (
      match t.free with
      | [] ->
          t.alloc_failures <- t.alloc_failures + 1;
          No_space
      | i :: rest ->
          t.free <- rest;
          let slot = t.slots.(i) in
          let u =
            {
              key;
              first_miss_time = Engine.now t.engine;
              frames_rev = [ frame ];
              resend_count = 0;
              resend_handle = None;
            }
          in
          slot.state <- Held u;
          Flow_key.Table.add t.by_key key i;
          t.in_use <- t.in_use + 1;
          t.packets <- t.packets + 1;
          note_occupancy t;
          (* While frozen (controller session down, fail-secure mode)
             chains are absorbed silently: no re-request timer burns
             its budget into a dead link. [resume] arms it later. *)
          if not t.frozen then arm_resend t i u ~generation:slot.generation;
          let id = id_of ~generation:slot.generation ~slot:i in
          checked t (Sdn_check.Check.note_buffer_alloc ~id);
          First id)

let take_all t id =
  let i = slot_of_id id in
  if i < 0 || i >= t.capacity then Unknown_id
  else begin
    let slot = t.slots.(i) in
    match slot.state with
    | Held u when slot.generation = generation_of_id id ->
        (match u.resend_handle with Some h -> Engine.cancel h | None -> ());
        if u.resend_count > 0 then begin
          (* The flow survived at least one unanswered request: its
             whole wait is the time-to-recovery the chaos report
             histograms. *)
          t.recovered_flows <- t.recovered_flows + 1;
          Stats.add t.recovery_delays
            (Engine.now t.engine -. u.first_miss_time)
        end;
        let frames = List.rev u.frames_rev in
        checked t
          (Sdn_check.Check.note_buffer_release ~id
             ~packets:(List.length frames));
        t.packets <- t.packets - List.length frames;
        Flow_key.Table.remove t.by_key u.key;
        slot.state <-
          Reclaiming
            (Engine.schedule t.engine ~delay:t.reclaim_lag (fun () ->
                 match slot.state with
                 | Reclaiming _ -> release_slot t i
                 | Free | Held _ -> ()));
        Taken frames
    | Held _ | Free | Reclaiming _ -> Unknown_id
  end

let freeze t =
  if not t.frozen then begin
    t.frozen <- true;
    t.freezes <- t.freezes + 1;
    Array.iter
      (fun slot ->
        match slot.state with
        | Held u ->
            (match u.resend_handle with
            | Some h -> Engine.cancel h
            | None -> ());
            u.resend_handle <- None;
            t.chains_frozen <- t.chains_frozen + 1
        | Free | Reclaiming _ -> ())
      t.slots
  end

let resume t =
  if t.frozen then begin
    t.frozen <- false;
    (* Index order keeps the post-outage re-request schedule
       deterministic. Chains that had already spent their whole resend
       budget before the outage expire here; the rest re-enter the
       normal backoff machinery at their next attempt number. *)
    Array.iteri
      (fun i slot ->
        match slot.state with
        | Held u ->
            if u.resend_count >= t.max_resends then begin
              t.expired_on_resume <- t.expired_on_resume + 1;
              drop_unit t i u
            end
            else begin
              t.chains_resumed <- t.chains_resumed + 1;
              arm_resend t i u ~generation:slot.generation
            end
        | Free | Reclaiming _ -> ())
      t.slots
  end

let wipe t =
  let chains = ref 0 and packets = ref 0 in
  (* Index order: the expiry notes reach the checker in a fixed
     sequence, so wiped runs stay byte-reproducible. *)
  Array.iteri
    (fun i slot ->
      match slot.state with
      | Held u ->
          (match u.resend_handle with Some h -> Engine.cancel h | None -> ());
          checked t
            (Sdn_check.Check.note_buffer_expire
               ~id:(id_of ~generation:slot.generation ~slot:i));
          let n = List.length u.frames_rev in
          t.drops <- t.drops + n;
          t.packets <- t.packets - n;
          Flow_key.Table.remove t.by_key u.key;
          release_slot t i;
          incr chains;
          packets := !packets + n
      | Reclaiming handle ->
          (* Reclaim now, and cancel the deferred release so it cannot
             fire against a later allocation of this slot. *)
          Engine.cancel handle;
          release_slot t i
      | Free -> ())
    t.slots;
  t.frozen <- false;
  (!chains, !packets)

let has_chain t ~key = Flow_key.Table.mem t.by_key key

let is_frozen t = t.frozen
let freezes t = t.freezes
let chains_frozen t = t.chains_frozen
let chains_resumed t = t.chains_resumed
let expired_on_resume t = t.expired_on_resume

let capacity t = t.capacity
let units_in_use t = t.in_use
let packets_buffered t = t.packets
let flows_buffered t = Flow_key.Table.length t.by_key
let mean_units_in_use t ~until = Timeseries.Weighted.mean t.occupancy ~until
let max_units_in_use t = int_of_float (Timeseries.Weighted.max_value t.occupancy)
let alloc_failures t = t.alloc_failures
let resends t = t.resends
let drops t = t.drops
let abandoned_flows t = t.abandoned_flows
let recovered_flows t = t.recovered_flows
let recovery_delays t = t.recovery_delays
