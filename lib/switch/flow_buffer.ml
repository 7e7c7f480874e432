open Sdn_sim
open Sdn_net

(* What a held unit holds: one flow's chain. *)
type chain = {
  slot : int;
  key : Flow_key.t;
  first_miss_time : float;
  mutable frames_rev : Bytes.t list;
  mutable resend_count : int;
  mutable resend_handle : Engine.handle option;
}

type t = {
  engine : Engine.t;
  units : Buffer_units.t;
  mutable resend_timeout : float;
  mutable resend_multiplier : float;
  mutable resend_cap : float;
  resend_jitter : float;
  mutable max_resends : int;
  rng : Rng.t option;
  on_resend : buffer_id:int32 -> key:Flow_key.t -> first_frame:Bytes.t -> unit;
  chains : chain option array;  (** by slot *)
  by_key : chain option Int_table.t;  (** by the 5-tuple's three words *)
  words : int array;  (** scratch: a chain-index key *)
  mutable packets : int;
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

(* [>=] is false on NaN, so NaN fails too. *)
let valid_backoff ~resend_timeout ~resend_multiplier ~resend_cap =
  resend_timeout >= 0.0 && resend_multiplier >= 1.0 && resend_cap >= 0.0

let check_backoff fn ~resend_timeout ~resend_multiplier ~resend_cap =
  if not (valid_backoff ~resend_timeout ~resend_multiplier ~resend_cap) then
    invalid_arg
      (Printf.sprintf
         "Flow_buffer.%s: timeout %g or cap %g negative or NaN, or \
          multiplier %g below 1"
         fn resend_timeout resend_cap resend_multiplier)

let create engine ?check ?(pool_name = "flow_pool") ~capacity ~reclaim_lag
    ~resend_timeout ?(resend_multiplier = 1.0) ?(resend_cap = infinity)
    ?(resend_jitter = 0.0) ?rng ~max_resends ~on_resend () =
  check_backoff "create" ~resend_timeout ~resend_multiplier ~resend_cap;
  if resend_jitter < 0.0 || resend_jitter >= 1.0 then
    invalid_arg "Flow_buffer.create: jitter fraction out of [0, 1)";
  if resend_jitter > 0.0 && rng = None then
    invalid_arg "Flow_buffer.create: jitter needs an rng";
  let units =
    Buffer_units.create engine ?check ~name:pool_name ~capacity ~reclaim_lag ()
  in
  {
    engine;
    units;
    resend_timeout;
    resend_multiplier;
    resend_cap;
    resend_jitter;
    max_resends;
    rng;
    on_resend;
    chains = Array.make capacity None;
    by_key = Int_table.create ~words:Microflow.tuple_words None;
    words = Array.make Microflow.tuple_words 0;
    packets = 0;
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
  check_backoff "set_backoff" ~resend_timeout ~resend_multiplier ~resend_cap;
  t.resend_timeout <- resend_timeout;
  t.resend_multiplier <- resend_multiplier;
  t.resend_cap <- resend_cap;
  t.max_resends <- max_resends

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

let cancel_resend c =
  (match c.resend_handle with Some h -> Engine.cancel h | None -> ());
  c.resend_handle <- None

(* Load [t.words] with the chain-index key of a flow. *)
let index_key t key =
  if not (Microflow.load_flow_key t.words key) then
    invalid_arg "Flow_buffer: flow key port or protocol out of range"

(* Forget chain [c]: cancel its re-request, unmap its flow and empty
   its slot. Returns how many packets it held. *)
let forget t c =
  cancel_resend c;
  let n = List.length c.frames_rev in
  t.packets <- t.packets - n;
  index_key t c.key;
  Int_table.remove t.by_key t.words;
  t.chains.(c.slot) <- None;
  n

let abandon t c =
  let n = forget t c in
  t.drops <- t.drops + n;
  t.abandoned_flows <- t.abandoned_flows + 1;
  Buffer_units.expire t.units c.slot

let rec arm_resend t c =
  c.resend_handle <-
    Some
      (Engine.schedule t.engine
         ~delay:(resend_delay t ~attempt:c.resend_count)
         (fun () ->
           match t.chains.(c.slot) with
           | Some live when live == c ->
               if c.resend_count >= t.max_resends then abandon t c
               else begin
                 c.resend_count <- c.resend_count + 1;
                 t.resends <- t.resends + 1;
                 (match List.rev c.frames_rev with
                 | first :: _ ->
                     t.on_resend
                       ~buffer_id:(Buffer_units.id t.units c.slot)
                       ~key:c.key ~first_frame:first
                 | [] -> ());
                 arm_resend t c
               end
           | Some _ | None -> ()))

let add t ~key ~frame =
  index_key t key;
  match Int_table.find t.by_key t.words with
  | Some c ->
      c.frames_rev <- frame :: c.frames_rev;
      t.packets <- t.packets + 1;
      Appended (Buffer_units.append t.units c.slot)
  | None ->
      let i = Buffer_units.claim t.units in
      if i < 0 then begin
        t.alloc_failures <- t.alloc_failures + 1;
        No_space
      end
      else begin
        let c =
          {
            slot = i;
            key;
            first_miss_time = Engine.now t.engine;
            frames_rev = [ frame ];
            resend_count = 0;
            resend_handle = None;
          }
        in
        let held = Some c in
        t.chains.(i) <- held;
        Int_table.replace t.by_key t.words held;
        t.packets <- t.packets + 1;
        (* While frozen (controller session down, fail-secure mode)
           chains are absorbed silently: no re-request timer burns
           its budget into a dead link. [resume] arms it later. *)
        if not t.frozen then arm_resend t c;
        First (Buffer_units.id t.units i)
      end

let take_all t id =
  let i = Buffer_units.held_slot t.units id in
  match if i < 0 then None else t.chains.(i) with
  | None -> Unknown_id
  | Some c ->
      if c.resend_count > 0 then begin
        (* The flow survived at least one unanswered request: its
           whole wait is the time-to-recovery the chaos report
           histograms. *)
        t.recovered_flows <- t.recovered_flows + 1;
        Stats.add t.recovery_delays (Engine.now t.engine -. c.first_miss_time)
      end;
      let packets = forget t c in
      Buffer_units.release t.units i ~packets;
      Taken (List.rev c.frames_rev)

let freeze t =
  if not t.frozen then begin
    t.frozen <- true;
    t.freezes <- t.freezes + 1;
    Array.iter
      (function
        | Some c ->
            cancel_resend c;
            t.chains_frozen <- t.chains_frozen + 1
        | None -> ())
      t.chains
  end

let resume t =
  if t.frozen then begin
    t.frozen <- false;
    (* Index order keeps the post-outage re-request schedule
       deterministic. Chains that had already spent their whole resend
       budget before the outage expire here; the rest re-enter the
       normal backoff machinery at their next attempt number. *)
    Array.iter
      (function
        | Some c ->
            if c.resend_count >= t.max_resends then begin
              t.expired_on_resume <- t.expired_on_resume + 1;
              abandon t c
            end
            else begin
              t.chains_resumed <- t.chains_resumed + 1;
              arm_resend t c
            end
        | None -> ())
      t.chains
  end

let wipe t =
  let packets = ref 0 in
  Buffer_units.wipe t.units ~held:(fun i ->
      match t.chains.(i) with
      | Some c ->
          let n = forget t c in
          t.drops <- t.drops + n;
          packets := !packets + n
      | None -> ());
  t.frozen <- false;
  !packets

let has_chain t ~key =
  index_key t key;
  Option.is_some (Int_table.find t.by_key t.words)

let is_frozen t = t.frozen
let freezes t = t.freezes
let chains_frozen t = t.chains_frozen
let chains_resumed t = t.chains_resumed
let expired_on_resume t = t.expired_on_resume

let units t = t.units
let packets_buffered t = t.packets
let flows_buffered t = Int_table.length t.by_key
let alloc_failures t = t.alloc_failures
let resends t = t.resends
let drops t = t.drops
let abandoned_flows t = t.abandoned_flows
let recovered_flows t = t.recovered_flows
let recovery_delays t = t.recovery_delays
