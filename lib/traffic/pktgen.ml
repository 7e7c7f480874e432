open Sdn_sim

type stats = { injected : int; bytes : int; first : float; last : float }

(* The plan goes to the engine as three arrays in dispatch order.
   Each frame slot is emptied once its frame is injected, so the plan
   does not keep injected frames alive until the last one. *)
let schedule engine ~inject injections =
  let n = List.length injections in
  let times = Array.make n 0.0
  and ports = Array.make n 0
  and frames = Array.make n Bytes.empty in
  let sorted = ref true in
  List.iteri
    (fun i (inj : Patterns.injection) ->
      if i > 0 && inj.Patterns.time < times.(i - 1) then sorted := false;
      times.(i) <- inj.Patterns.time;
      ports.(i) <- inj.Patterns.in_port;
      frames.(i) <- inj.Patterns.frame)
    injections;
  (* A stable sort keeps list order among equal times, the order
     separate [schedule_at] calls in list order would dispatch them. *)
  let times, ports, frames =
    if !sorted then (times, ports, frames)
    else begin
      let order = Array.init n Fun.id in
      Array.stable_sort (fun a b -> Float.compare times.(a) times.(b)) order;
      ( Array.map (Array.get times) order,
        Array.map (Array.get ports) order,
        Array.map (Array.get frames) order )
    end
  in
  Engine.schedule_plan engine times (fun i ->
      let frame = frames.(i) in
      frames.(i) <- Bytes.empty;
      inject ~in_port:ports.(i) frame)

let stats_of injections =
  match injections with
  | [] -> { injected = 0; bytes = 0; first = 0.0; last = 0.0 }
  | first_inj :: _ ->
      let last_inj =
        List.fold_left (fun _ inj -> inj) first_inj injections
      in
      {
        injected = List.length injections;
        bytes = Patterns.total_bytes injections;
        first = first_inj.Patterns.time;
        last = last_inj.Patterns.time;
      }

let offered_rate_mbps stats =
  let span = stats.last -. stats.first in
  if span <= 0.0 || stats.injected <= 1 then 0.0
  else begin
    (* The last frame still needs its own serialization slot; include
       it so the rate matches the plan's nominal rate. *)
    let mean_gap = span /. float_of_int (stats.injected - 1) in
    Sdn_sim.Units.bps_to_mbps
      (Sdn_sim.Units.bytes_to_bits stats.bytes /. (span +. mean_gap))
  end
