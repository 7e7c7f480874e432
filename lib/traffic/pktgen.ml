open Sdn_sim

type stats = { injected : int; bytes : int; first : float; last : float }

let schedule engine ~inject (plan : Patterns.t) =
  let ports = plan.Patterns.ports and frame = plan.Patterns.frame in
  if Array.length ports <> Array.length plan.Patterns.times then
    invalid_arg "Pktgen.schedule: a plan needs one port per time";
  Engine.schedule_plan engine plan.Patterns.times (fun i ->
      inject ~in_port:ports.(i) (frame i))

let stats_of (plan : Patterns.t) =
  let times = plan.Patterns.times in
  let n = Array.length times in
  if n = 0 then { injected = 0; bytes = 0; first = 0.0; last = 0.0 }
  else
    {
      injected = n;
      bytes = plan.Patterns.bytes;
      first = times.(0);
      last = times.(n - 1);
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
