type 'a t = {
  engine : Engine.t;
  name : string;
  bandwidth_bps : float;
  propagation_s : float;
  capture : (time:float -> size:int -> 'a -> unit) option;
  faults : Faults.t option;
  receiver : 'a -> unit;
  mutable busy_until : float;
  mutable bytes_sent : int;
  mutable messages_sent : int;
  mutable messages_lost : int;
  mutable backlog_bytes : int;
}

let create engine ~name ~bandwidth_bps ~propagation_s ?capture ?faults
    ~receiver () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  if propagation_s < 0.0 then invalid_arg "Link.create: negative propagation";
  {
    engine;
    name;
    bandwidth_bps;
    propagation_s;
    capture;
    faults;
    receiver;
    busy_until = Engine.now engine;
    bytes_sent = 0;
    messages_sent = 0;
    messages_lost = 0;
    backlog_bytes = 0;
  }

let send t ~size payload =
  if size < 0 then invalid_arg "Link.send: negative size";
  let now = Engine.now t.engine in
  let start = Float.max now t.busy_until in
  let tx = Units.transmission_time ~bytes:size ~bandwidth_bps:t.bandwidth_bps in
  t.busy_until <- start +. tx;
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
  let deliver_at = t.busy_until +. t.propagation_s +. jitter_s in
  ignore
    (Engine.schedule_at t.engine deliver_at (fun () ->
         t.backlog_bytes <- t.backlog_bytes - size;
         if lost then t.messages_lost <- t.messages_lost + 1
         else t.receiver payload))

let name t = t.name
let bytes_sent t = t.bytes_sent
let messages_sent t = t.messages_sent
let messages_lost t = t.messages_lost
let busy_until t = t.busy_until
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
