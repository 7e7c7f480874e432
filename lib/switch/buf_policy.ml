open Sdn_sim

type kind =
  | Static
  | Sharing
  | Dt of { alpha : float }
  | Tdt of { alpha0 : float; target_delay : float }

let default_alpha = 2.0
let default_target_delay = 2e-3

(* EWMA smoothing for observed queueing delay (beta = 1/8, the classic
   RTT-estimator gain). *)
let ewma_beta = 0.125

(* TDT alpha is clamped to [1/64, 64]: a class is never starved below
   1/64 of the free pool nor allowed to dominate past 64x of it. *)
let alpha_min = 1.0 /. 64.0
let alpha_max = 64.0

let kind_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "static" ] -> Ok Static
  | [ "share" ] -> Ok Sharing
  | [ "dt" ] -> Ok (Dt { alpha = default_alpha })
  | [ "dt"; a ] -> (
      match float_of_string_opt a with
      | Some alpha when alpha > 0.0 -> Ok (Dt { alpha })
      | _ -> Error (Printf.sprintf "bad DT alpha %S (want a positive float)" a))
  | [ "tdt" ] ->
      Ok (Tdt { alpha0 = default_alpha; target_delay = default_target_delay })
  | [ "tdt"; a ] -> (
      match float_of_string_opt a with
      | Some alpha0 when alpha0 > 0.0 ->
          Ok (Tdt { alpha0; target_delay = default_target_delay })
      | _ ->
          Error (Printf.sprintf "bad TDT alpha0 %S (want a positive float)" a))
  | [ "tdt"; a; d ] -> (
      match (float_of_string_opt a, float_of_string_opt d) with
      | Some alpha0, Some ms when alpha0 > 0.0 && ms > 0.0 ->
          Ok (Tdt { alpha0; target_delay = ms /. 1000.0 })
      | _ ->
          Error
            (Printf.sprintf
               "bad TDT spec %S (want tdt:ALPHA0:TARGET_MS, both positive)" s))
  | _ ->
      Error
        (Printf.sprintf
           "unknown buffer policy %S (want static|share|dt:ALPHA|tdt)" s)

let kind_to_string = function
  | Static -> "static"
  | Sharing -> "share"
  | Dt { alpha } -> Printf.sprintf "dt:%g" alpha
  | Tdt { alpha0; target_delay } ->
      Printf.sprintf "tdt:%g:%g" alpha0 (target_delay *. 1000.0)

type t = {
  kind : kind;
  engine : Engine.t;
  check : Sdn_check.Check.t option;
  pool_name : string;
  mutable capacity : int;
  mutable used : int;
  mutable classes : cls list;  (** registration order *)
}

and cls = {
  pool : t;
  name : string;
  quota : int;
  priority : int;
  mutable len : int;
  mutable len_max : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable alpha_v : float;
  mutable delay_ewma : float;
  mutable delay_samples : int;
  occupancy : Timeseries.Weighted.w;
}

let create ?check ?(headroom = 0) ~kind ~name engine =
  if headroom < 0 then invalid_arg "Buf_policy.create: negative headroom";
  (match check with
  | Some check ->
      Sdn_check.Check.note_pool_create check ~time:(Engine.now engine)
        ~pool:name ~headroom
  | None -> ());
  {
    kind;
    engine;
    check;
    pool_name = name;
    capacity = headroom;
    used = 0;
    classes = [];
  }

let capacity t = t.capacity
let free t = t.capacity - t.used

let initial_alpha kind ~priority =
  match kind with
  | Static -> 0.0
  | Sharing -> Float.infinity
  | Dt { alpha } -> alpha
  | Tdt { alpha0; _ } ->
      Float.min alpha_max
        (Float.max alpha_min (alpha0 *. (1.0 +. (float_of_int priority /. 8.0))))

let register t ~name ~quota ~priority =
  if quota < 0 then invalid_arg "Buf_policy.register: negative quota";
  if List.exists (fun c -> String.equal c.name name) t.classes then
    invalid_arg
      (Printf.sprintf "Buf_policy.register: duplicate class %s in pool %s" name
         t.pool_name);
  let now = Engine.now t.engine in
  let c =
    {
      pool = t;
      name;
      quota;
      priority;
      len = 0;
      len_max = 0;
      admitted = 0;
      rejected = 0;
      alpha_v = initial_alpha t.kind ~priority;
      delay_ewma = 0.0;
      delay_samples = 0;
      occupancy = Timeseries.Weighted.create ~start:now ();
    }
  in
  t.capacity <- t.capacity + quota;
  t.classes <- t.classes @ [ c ];
  (match t.check with
  | Some check ->
      Sdn_check.Check.note_pool_register check ~time:now ~pool:t.pool_name
        ~class_:name ~quota
  | None -> ());
  c

(* The admission predicate is the whole policy: a pure function of the
   class length and the pool's free count at decision time. *)
let admits c =
  let p = c.pool in
  let free = p.capacity - p.used in
  match p.kind with
  | Static -> c.len < c.quota
  | Sharing -> free > 0
  | Dt _ | Tdt _ ->
      free > 0 && float_of_int c.len < c.alpha_v *. float_of_int free

let admit c =
  let p = c.pool in
  if admits c then begin
    c.len <- c.len + 1;
    if c.len > c.len_max then c.len_max <- c.len;
    c.admitted <- c.admitted + 1;
    p.used <- p.used + 1;
    let now = Engine.now p.engine in
    Timeseries.Weighted.update c.occupancy ~time:now
      ~value:(float_of_int c.len);
    (match p.check with
    | Some check ->
        Sdn_check.Check.note_pool_claim check ~time:now ~pool:p.pool_name
          ~class_:c.name ~free:(p.capacity - p.used)
    | None -> ());
    true
  end
  else begin
    c.rejected <- c.rejected + 1;
    false
  end

let release c =
  let p = c.pool in
  if c.len <= 0 then
    invalid_arg
      (Printf.sprintf "Buf_policy.release: class %s holds nothing" c.name);
  c.len <- c.len - 1;
  p.used <- p.used - 1;
  let now = Engine.now p.engine in
  Timeseries.Weighted.update c.occupancy ~time:now ~value:(float_of_int c.len);
  match p.check with
  | Some check ->
      Sdn_check.Check.note_pool_release check ~time:now ~pool:p.pool_name
        ~class_:c.name ~free:(p.capacity - p.used)
  | None -> ()

let note_delay c d =
  let d = Float.max 0.0 d in
  if c.delay_samples = 0 then c.delay_ewma <- d
  else c.delay_ewma <- c.delay_ewma +. (ewma_beta *. (d -. c.delay_ewma));
  c.delay_samples <- c.delay_samples + 1;
  match c.pool.kind with
  | Tdt { alpha0; target_delay } ->
      (* Classes meeting their delay target keep a generous alpha
         (scaled up with priority); classes whose observed delay
         inflates past the target see alpha tightened toward the
         floor, releasing shared slack to the others. *)
      let boost = 1.0 +. (float_of_int c.priority /. 8.0) in
      let pressure = target_delay /. (target_delay +. c.delay_ewma) in
      c.alpha_v <-
        Float.min alpha_max (Float.max alpha_min (alpha0 *. boost *. pressure))
  | Static | Sharing | Dt _ -> ()

let threshold c =
  let p = c.pool in
  match p.kind with
  | Static -> c.quota
  | Sharing -> p.capacity
  | Dt _ | Tdt _ ->
      let free = float_of_int (p.capacity - p.used) in
      Int.min p.capacity (int_of_float (c.alpha_v *. free))

let alpha c = c.alpha_v

type class_stat = {
  class_name : string;
  quota : int;
  priority : int;
  occupancy_mean : float;
  occupancy_max : int;
  threshold : int;
  alpha : float;
  admitted : int;
  rejected : int;
}

let stats t ~until =
  List.map
    (fun c ->
      {
        class_name = c.name;
        quota = c.quota;
        priority = c.priority;
        occupancy_mean = Timeseries.Weighted.mean c.occupancy ~until;
        occupancy_max = c.len_max;
        threshold = threshold c;
        alpha = c.alpha_v;
        admitted = c.admitted;
        rejected = c.rejected;
      })
    t.classes

let pp_class_stat ppf s =
  Format.fprintf ppf
    "%-14s quota=%-4d prio=%d occ-mean=%6.2f occ-max=%-4d thr=%-4d \
     alpha=%6.3f admitted=%-6d rejected=%d"
    s.class_name s.quota s.priority s.occupancy_mean s.occupancy_max
    s.threshold s.alpha s.admitted s.rejected
