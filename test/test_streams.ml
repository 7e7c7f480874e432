(* Event streams against an oracle. A jitter-free [Link] keeps only its
   oldest message queued, each [Cpu] core re-arms one completion event
   and a traffic plan re-arms one injection event; every one of those
   events must dispatch exactly where one [Engine.schedule_at] per
   message, job or injection would have put it. The oracle below is
   that older design, kept here as the reference: a link and a CPU that
   schedule every delivery and completion on its own. *)

open Sdn_sim

(* The reference link: one [Engine.schedule_at] per message, at the
   end of [send], as [Link.send] did before it kept a ring. *)
module Ref_link = struct
  type 'a t = {
    engine : Engine.t;
    bandwidth_bps : float;
    propagation_s : float;
    faults : Faults.t option;
    receiver : 'a -> unit;
    mutable busy_until : float;
    mutable lost : int;
  }

  let create engine ~bandwidth_bps ~propagation_s ?faults ~receiver () =
    {
      engine;
      bandwidth_bps;
      propagation_s;
      faults;
      receiver;
      busy_until = Engine.now engine;
      lost = 0;
    }

  let send t ~size payload =
    let now = Engine.now t.engine in
    let start = Float.max now t.busy_until in
    let tx = Units.transmission_time ~bytes:size ~bandwidth_bps:t.bandwidth_bps in
    t.busy_until <- start +. tx;
    let lost, jitter_s =
      match t.faults with
      | None -> (false, 0.0)
      | Some plan -> (
          match Faults.judge plan ~now with
          | Faults.Drop _ -> (true, 0.0)
          | Faults.Deliver { jitter_s } -> (false, jitter_s))
    in
    let deliver_at = t.busy_until +. t.propagation_s +. jitter_s in
    ignore
      (Engine.schedule_at t.engine deliver_at (fun () ->
           if lost then t.lost <- t.lost + 1 else t.receiver payload))
end

(* The reference CPU: FIFO queue, one [Engine.schedule] per job start. *)
module Ref_cpu = struct
  type job = { work : float; finish : unit -> unit }

  type t = {
    engine : Engine.t;
    cores : int;
    noise : unit -> float;
    waiting : job Queue.t;
    mutable busy : int;
  }

  let create engine ~cores ~noise =
    { engine; cores; noise; waiting = Queue.create (); busy = 0 }

  let rec start_job t job =
    t.busy <- t.busy + 1;
    let effective = Float.max 0.0 (job.work *. 1.0 *. t.noise ()) in
    ignore (Engine.schedule t.engine ~delay:effective (fun () -> complete t job))

  and complete t job =
    t.busy <- t.busy - 1;
    job.finish ();
    if t.busy < t.cores && not (Queue.is_empty t.waiting) then
      start_job t (Queue.pop t.waiting)

  let submit t ~work_s finish =
    let job = { work = work_s; finish } in
    if t.busy < t.cores then start_job t job else Queue.push job t.waiting
end

(* What a script needs from a world: three links, one CPU, plans. *)
type world = {
  engine : Engine.t;
  send : int -> size:int -> int -> unit;
  submit : work_s:float -> (unit -> unit) -> unit;
  plan : float array -> (int -> unit) -> unit;
  lost : unit -> int;
}

(* A time unit whose multiples add exactly, so events tie often. *)
let u = 1.0 /. 1024.0

(* 131,072 b/s: a 16-byte message takes u/128 on the wire. *)
let bandwidth_bps = 131_072.0

(* Link 0 is clean, link 1 loses messages without jitter (so it still
   keeps a ring), link 2 loses and jitters them (one event each). *)
let link_faults = function
  | 0 -> None
  | 1 -> Some { Faults.none with Faults.loss_rate = 0.3 }
  | _ -> Some { Faults.none with Faults.loss_rate = 0.2; jitter_s = 2.0 *. u }

let propagation = function 0 -> 0.0 | 1 -> 3.0 *. u | _ -> u

(* Every random stream a world draws from, fresh from the same seeds
   in both worlds. *)
let faults_for link =
  Option.map
    (fun spec -> Faults.create ~spec ~rng:(Rng.of_int (100 + link)) ())
    (link_faults link)

let noise_fn ~noise =
  if noise then
    let rng = Rng.of_int 7 in
    fun () -> Rng.lognormal_factor rng ~sigma:0.3
  else fun () -> 1.0

let streamed ~cores ~noise ~receive =
  let engine = Engine.create () in
  let links =
    Array.init 3 (fun k ->
        Link.create engine ~name:(Printf.sprintf "l%d" k) ~bandwidth_bps
          ~propagation_s:(propagation k) ?faults:(faults_for k)
          ~receiver:(receive k) ())
  in
  let cpu = Cpu.create engine ~name:"cpu" ~cores ~noise:(noise_fn ~noise) () in
  {
    engine;
    send = (fun k ~size payload -> Link.send links.(k) ~size payload);
    submit = (fun ~work_s k -> Cpu.submit cpu ~work_s k);
    plan = Engine.schedule_plan engine;
    lost =
      (fun () -> Array.fold_left (fun n l -> n + Link.messages_lost l) 0 links);
  }

let reference ~cores ~noise ~receive =
  let engine = Engine.create () in
  let links =
    Array.init 3 (fun k ->
        Ref_link.create engine ~bandwidth_bps ~propagation_s:(propagation k)
          ?faults:(faults_for k) ~receiver:(receive k) ())
  in
  let cpu = Ref_cpu.create engine ~cores ~noise:(noise_fn ~noise) in
  {
    engine;
    send = (fun k ~size payload -> Ref_link.send links.(k) ~size payload);
    submit = (fun ~work_s k -> Ref_cpu.submit cpu ~work_s k);
    plan =
      (fun times f ->
        Array.iteri
          (fun i time -> ignore (Engine.schedule_at engine time (fun () -> f i)))
          times);
    lost = (fun () -> Array.fold_left (fun n l -> n + l.Ref_link.lost) 0 links);
  }

(* A step [(at, kind, a, b)] runs at time [at * u]:
   - kind 0 sends a message of [16 * b] bytes on link [a mod 3]; its
     token carries [a mod 3] further hops;
   - kind 1 submits a job of [(b + 1) * u / 4] seconds;
   - kind 2 schedules a timer [a * u / 2] ahead, which another timer
     cancels [b * u / 4] ahead when [b] is even;
   - kind 3 schedules a plan of [a + 1] injections [b mod 3 * u / 2]
     apart, each sending a 64-byte message on link 0.
   A delivered message with hops left submits a job whose completion
   sends it on with one hop fewer, so messages cross links, the CPU and
   each other. Each world returns its trace of (time, label, processed,
   pending) and its final counts. *)
let run_script make (cores, noise, steps) =
  let trace = ref [] in
  let world = ref None in
  let get () = Option.get !world in
  let note label =
    let w = get () in
    trace :=
      (Engine.now w.engine, label, Engine.processed w.engine,
       Engine.pending w.engine)
      :: !trace
  in
  let receive k token =
    note (Printf.sprintf "L%d:%d" k token);
    let hops = token land 3 in
    if hops > 0 then
      (get ()).submit
        ~work_s:(float_of_int ((token lsr 2) mod 5 + 1) *. u /. 4.0)
        (fun () ->
          note (Printf.sprintf "C:%d" token);
          (get ()).send ((k + token) mod 3) ~size:(16 * (token mod 7)) (token - 1))
  in
  let w = make ~cores ~noise ~receive in
  world := Some w;
  List.iteri
    (fun id (at, kind, a, b) ->
      ignore
        (Engine.schedule_at w.engine
           (float_of_int at *. u)
           (fun () ->
             match kind with
             | 0 -> w.send (a mod 3) ~size:(16 * b) ((id lsl 2) lor (a mod 3))
             | 1 ->
                 w.submit
                   ~work_s:(float_of_int (b + 1) *. u /. 4.0)
                   (fun () -> note (Printf.sprintf "J:%d" id))
             | 2 ->
                 let timer =
                   Engine.schedule w.engine
                     ~delay:(float_of_int a *. u /. 2.0)
                     (fun () -> note (Printf.sprintf "T:%d" id))
                 in
                 if b mod 2 = 0 then
                   ignore
                     (Engine.schedule w.engine
                        ~delay:(float_of_int b *. u /. 4.0)
                        (fun () -> Engine.cancel timer))
             | _ ->
                 let now = Engine.now w.engine in
                 let gap = float_of_int (b mod 3) *. u /. 2.0 in
                 w.plan
                   (Array.init (a + 1) (fun i -> now +. (float_of_int i *. gap)))
                   (fun i ->
                     note (Printf.sprintf "P:%d:%d" id i);
                     w.send 0 ~size:64 ((id lsl 2) lor 1)))))
    steps;
  Engine.run w.engine;
  (List.rev !trace, Engine.processed w.engine, Engine.pending w.engine, w.lost ())

let case =
  QCheck.(
    triple (int_range 1 4) bool
      (small_list
         (quad (int_bound 40) (int_bound 3) (int_bound 12) (int_bound 12))))

let prop_streams_match_reference =
  QCheck.Test.make ~name:"streams dispatch like one event each" ~count:300 case
    (fun c -> run_script streamed c = run_script reference c)

(* Guards the property against a vacuous pass: a fixed script whose
   trace shows ties, losses, queued jobs and a cancelled timer. *)
let test_script_exercises_streams () =
  let c =
    ( 2,
      true,
      [
        (0, 0, 2, 3); (0, 0, 1, 3); (0, 0, 1, 12); (0, 3, 5, 0); (1, 1, 0, 4);
        (1, 1, 0, 4); (1, 1, 0, 4); (2, 2, 4, 2); (2, 2, 4, 5); (3, 0, 5, 0);
        (3, 3, 3, 1); (4, 0, 2, 7); (4, 0, 2, 7); (4, 0, 2, 7);
      ] )
  in
  let trace, processed, pending, lost = run_script streamed c in
  Alcotest.(check bool) "same as the reference" true
    ((trace, processed, pending, lost) = run_script reference c);
  Alcotest.(check int) "drained" 0 pending;
  Alcotest.(check bool) "some messages lost" true (lost > 0);
  let labels = List.map (fun (_, l, _, _) -> l) trace in
  let count prefix =
    List.length
      (List.filter
         (fun l ->
           String.length l >= String.length prefix
           && String.equal (String.sub l 0 (String.length prefix)) prefix)
         labels)
  in
  Alcotest.(check bool) "plans ran" true (count "P:" >= 4);
  Alcotest.(check bool) "jobs ran" true (count "J:" = 3 && count "C:" > 0);
  Alcotest.(check int) "one timer cancelled" 1 (count "T:");
  let ties =
    List.exists2
      (fun (t1, _, _, _) (t2, _, _, _) -> Float.equal t1 t2)
      (List.filteri (fun i _ -> i < List.length trace - 1) trace)
      (List.tl trace)
  in
  Alcotest.(check bool) "events tie" true ties

let suite =
  [
    QCheck_alcotest.to_alcotest prop_streams_match_reference;
    Alcotest.test_case "script exercises every stream" `Quick
      test_script_exercises_streams;
  ]
