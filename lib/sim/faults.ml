type burst = {
  p_good_to_bad : float;
  p_bad_to_good : float;
  loss_good : float;
  loss_bad : float;
}

type outage = { start_s : float; stop_s : float }

type restart_mode = Warm | Cold

let restart_mode_to_string = function Warm -> "warm" | Cold -> "cold"

let restart_mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "warm" -> Ok Warm
  | "cold" -> Ok Cold
  | other -> Error (Printf.sprintf "restart mode %S: want warm or cold" other)

type crash_node = Switch_node | Controller_node

let crash_node_to_string = function
  | Switch_node -> "switch"
  | Controller_node -> "controller"

let crash_node_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "switch" | "sw" -> Ok Switch_node
  | "controller" | "ctl" -> Ok Controller_node
  | other -> Error (Printf.sprintf "crash node %S: want switch or controller" other)

type crash = {
  node : crash_node;
  at_s : float;
  down_s : float;
  mode : restart_mode;
}

type spec = {
  loss_rate : float;
  burst : burst option;
  jitter_s : float;
  outages : outage list;
  crashes : crash list;
}

let none =
  {
    loss_rate = 0.0;
    burst = None;
    jitter_s = 0.0;
    outages = [];
    crashes = [];
  }

let is_none spec =
  spec.loss_rate = 0.0 && spec.burst = None && spec.jitter_s = 0.0
  && spec.outages = [] && spec.crashes = []

let prob_ok p = p >= 0.0 && p <= 1.0

(* Every range check is written so that NaN fails it. *)
let validate spec =
  if not (prob_ok spec.loss_rate) then Error "loss rate out of [0, 1]"
  else if not (spec.jitter_s >= 0.0) then Error "jitter must be >= 0"
  else if
    List.exists
      (fun o -> not (o.start_s >= 0.0 && o.stop_s >= o.start_s))
      spec.outages
  then Error "malformed outage window (want 0 <= start <= stop)"
  else if
    List.exists (fun c -> not (c.at_s >= 0.0 && c.down_s >= 0.0)) spec.crashes
  then Error "malformed crash (want crash time >= 0 and down duration >= 0)"
  else begin
    match spec.burst with
    | Some b
      when not
             (prob_ok b.p_good_to_bad && prob_ok b.p_bad_to_good
             && prob_ok b.loss_good && prob_ok b.loss_bad) ->
        Error "burst probability out of [0, 1]"
    | Some _ | None -> Ok spec
  end

let spec_to_string spec =
  if is_none spec then "none"
  else begin
    let fields = ref [] in
    let add s = fields := s :: !fields in
    if spec.crashes <> [] then
      add
        (Printf.sprintf "crash=%s"
           (String.concat "+"
              (List.map
                 (fun c ->
                   Printf.sprintf "%s:%g:%g:%s"
                     (crash_node_to_string c.node)
                     c.at_s c.down_s
                     (restart_mode_to_string c.mode))
                 spec.crashes)));
    if spec.outages <> [] then
      add
        (Printf.sprintf "outage=%s"
           (String.concat "+"
              (List.map
                 (fun o -> Printf.sprintf "%g-%g" o.start_s o.stop_s)
                 spec.outages)));
    if spec.jitter_s > 0.0 then add (Printf.sprintf "jitter=%g" spec.jitter_s);
    (match spec.burst with
    | Some b ->
        add
          (Printf.sprintf "burst=%g:%g:%g:%g" b.p_good_to_bad b.p_bad_to_good
             b.loss_bad b.loss_good)
    | None -> ());
    if spec.loss_rate > 0.0 then add (Printf.sprintf "loss=%g" spec.loss_rate);
    String.concat "," !fields
  end

let float_of_string_opt' s = float_of_string_opt (String.trim s)

let parse_outages value =
  let windows = String.split_on_char '+' value in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | w :: rest -> (
        match String.index_opt w '-' with
        | None -> Error (Printf.sprintf "outage %S: want T0-T1" w)
        | Some i -> (
            let t0 = float_of_string_opt' (String.sub w 0 i) in
            let t1 =
              float_of_string_opt'
                (String.sub w (i + 1) (String.length w - i - 1))
            in
            match (t0, t1) with
            | Some start_s, Some stop_s -> go ({ start_s; stop_s } :: acc) rest
            | _ -> Error (Printf.sprintf "outage %S: bad number" w)))
  in
  go [] windows

let parse_crashes value =
  let entries = String.split_on_char '+' value in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | entry :: rest -> (
        match String.split_on_char ':' entry with
        | [ node_s; at_s_s; down_s_s; mode_s ] -> (
            match (crash_node_of_string node_s, restart_mode_of_string mode_s)
            with
            | Error _ as e, _ | _, (Error _ as e) -> e
            | Ok node, Ok mode -> (
                match
                  (float_of_string_opt' at_s_s, float_of_string_opt' down_s_s)
                with
                | Some at_s, Some down_s ->
                    go ({ node; at_s; down_s; mode } :: acc) rest
                | _ -> Error (Printf.sprintf "crash %S: bad number" entry)))
        | _ ->
            Error
              (Printf.sprintf "crash %S: want NODE:AT:DOWN:MODE" entry))
  in
  go [] entries

let parse_burst value =
  match List.map float_of_string_opt' (String.split_on_char ':' value) with
  | [ Some p_good_to_bad; Some p_bad_to_good ] ->
      Ok { p_good_to_bad; p_bad_to_good; loss_good = 0.0; loss_bad = 1.0 }
  | [ Some p_good_to_bad; Some p_bad_to_good; Some loss_bad ] ->
      Ok { p_good_to_bad; p_bad_to_good; loss_good = 0.0; loss_bad }
  | [ Some p_good_to_bad; Some p_bad_to_good; Some loss_bad; Some loss_good ]
    ->
      Ok { p_good_to_bad; p_bad_to_good; loss_good; loss_bad }
  | _ -> Error (Printf.sprintf "burst %S: want PGB:PBG[:LBAD[:LGOOD]]" value)

let spec_of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok none
  else begin
    let fields = String.split_on_char ',' s in
    let rec go spec = function
      | [] -> validate spec
      | field :: rest -> (
          match String.index_opt field '=' with
          | None -> Error (Printf.sprintf "field %S: want key=value" field)
          | Some i -> (
              let key = String.trim (String.sub field 0 i) in
              let value =
                String.trim
                  (String.sub field (i + 1) (String.length field - i - 1))
              in
              match key with
              | "loss" -> (
                  match float_of_string_opt' value with
                  | Some loss_rate -> go { spec with loss_rate } rest
                  | None -> Error (Printf.sprintf "loss %S: bad number" value))
              | "jitter" -> (
                  match float_of_string_opt' value with
                  | Some jitter_s -> go { spec with jitter_s } rest
                  | None ->
                      Error (Printf.sprintf "jitter %S: bad number" value))
              | "burst" -> (
                  match parse_burst value with
                  | Ok b -> go { spec with burst = Some b } rest
                  | Error _ as e -> e)
              | "outage" -> (
                  match parse_outages value with
                  | Ok outages ->
                      go { spec with outages = spec.outages @ outages } rest
                  | Error _ as e -> e)
              | "crash" -> (
                  match parse_crashes value with
                  | Ok crashes ->
                      go { spec with crashes = spec.crashes @ crashes } rest
                  | Error _ as e -> e)
              | _ -> Error (Printf.sprintf "unknown fault field %S" key)))
    in
    go none fields
  end

let crashes_for spec node =
  List.stable_sort
    (fun a b -> Float.compare a.at_s b.at_s)
    (List.filter (fun c -> c.node = node) spec.crashes)

type reason = Independent_loss | Burst_loss | Outage

let reason_to_string = function
  | Independent_loss -> "independent-loss"
  | Burst_loss -> "burst-loss"
  | Outage -> "outage"

type verdict = Deliver of { jitter_s : float } | Drop of reason

type t = {
  spec : spec;
  rng : Rng.t;
  mutable bad : bool;
  mutable dropped_independent : int;
  mutable dropped_burst : int;
  mutable dropped_outage : int;
  mutable delayed : int;
}

let create ?(spec = none) ~rng () =
  (match validate spec with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Faults.create: " ^ e));
  {
    spec;
    rng;
    bad = false;
    dropped_independent = 0;
    dropped_burst = 0;
    dropped_outage = 0;
    delayed = 0;
  }

let in_outage t ~now =
  List.exists (fun o -> now >= o.start_s && now < o.stop_s) t.spec.outages

(* Sample the burst chain for one message: loss draw in the current
   state, then one transition. Returns whether the message is lost. *)
let burst_step t (b : burst) =
  let loss_p = if t.bad then b.loss_bad else b.loss_good in
  let lost = loss_p > 0.0 && Rng.float t.rng 1.0 < loss_p in
  let flip_p = if t.bad then b.p_bad_to_good else b.p_good_to_bad in
  if flip_p > 0.0 && Rng.float t.rng 1.0 < flip_p then t.bad <- not t.bad;
  lost

let judge t ~now =
  if in_outage t ~now then begin
    t.dropped_outage <- t.dropped_outage + 1;
    Drop Outage
  end
  else begin
    let burst_lost =
      match t.spec.burst with Some b -> burst_step t b | None -> false
    in
    if burst_lost then begin
      t.dropped_burst <- t.dropped_burst + 1;
      Drop Burst_loss
    end
    else if t.spec.loss_rate > 0.0 && Rng.float t.rng 1.0 < t.spec.loss_rate
    then begin
      t.dropped_independent <- t.dropped_independent + 1;
      Drop Independent_loss
    end
    else begin
      let jitter_s =
        if t.spec.jitter_s > 0.0 then Rng.float t.rng t.spec.jitter_s else 0.0
      in
      if jitter_s > 0.0 then t.delayed <- t.delayed + 1;
      Deliver { jitter_s }
    end
  end

let spec t = t.spec

let dropped t = t.dropped_independent + t.dropped_burst + t.dropped_outage

let dropped_by t = function
  | Independent_loss -> t.dropped_independent
  | Burst_loss -> t.dropped_burst
  | Outage -> t.dropped_outage

let delayed t = t.delayed
