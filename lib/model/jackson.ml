(* Open Jackson networks: solve the traffic equations, then treat each
   station as an independent M/M/c queue (the product form). *)

type node = { name : string; service : float; servers : int }

type station = {
  node : node;
  visits : float;
  lambda : float;
  queue : Mm1.t;
}

type t = {
  arrival_rate : float;
  stations : station list;
  stable : bool;
}

let check_node n =
  if not (Float.is_finite n.service) || n.service <= 0.0 then
    invalid_arg ("Jackson: node " ^ n.name ^ " needs a positive service time");
  if n.servers < 1 then
    invalid_arg ("Jackson: node " ^ n.name ^ " needs at least one server")

let solve ~arrival_rate nodes =
  if not (Float.is_finite arrival_rate) || arrival_rate < 0.0 then
    invalid_arg "Jackson.solve: arrival rate must be finite and >= 0";
  let names = List.map (fun (n, _) -> n.name) nodes in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Jackson.solve: duplicate node names";
  let stations =
    List.map
      (fun (node, visits) ->
        check_node node;
        if not (Float.is_finite visits) || visits < 0.0 then
          invalid_arg ("Jackson.solve: node " ^ node.name ^ " visits < 0");
        let lambda = arrival_rate *. visits in
        let queue =
          Mm1.mmc ~lambda ~mu:(1.0 /. node.service) ~servers:node.servers
        in
        { node; visits; lambda; queue })
      nodes
  in
  {
    arrival_rate;
    stations;
    stable = List.for_all (fun s -> s.queue.Mm1.rho < 1.0) stations;
  }

let solve_routing ~external_arrivals ~routing ~nodes =
  let n = Array.length nodes in
  if Array.length external_arrivals <> n || Array.length routing <> n then
    invalid_arg "Jackson.solve_routing: shape mismatch";
  Array.iter
    (fun g ->
      if not (Float.is_finite g) || g < 0.0 then
        invalid_arg "Jackson.solve_routing: external arrivals must be >= 0")
    external_arrivals;
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Jackson.solve_routing: shape mismatch";
      let sum = Array.fold_left ( +. ) 0.0 row in
      Array.iter
        (fun p ->
          if not (Float.is_finite p) || p < 0.0 then
            invalid_arg "Jackson.solve_routing: routing entries must be >= 0")
        row;
      if sum > 1.0 +. 1e-12 then
        invalid_arg "Jackson.solve_routing: routing row sums above 1")
    routing;
  let gamma_total = Array.fold_left ( +. ) 0.0 external_arrivals in
  (* lambda = gamma + lambda P, iterated to a fixed point; converges
     geometrically for any substochastic routing with escape. *)
  let lambda = Array.copy external_arrivals in
  let next = Array.make n 0.0 in
  let delta = ref infinity in
  let iterations = ref 0 in
  while !delta > 1e-12 *. Float.max 1.0 gamma_total && !iterations < 10_000 do
    for j = 0 to n - 1 do
      next.(j) <- external_arrivals.(j);
      for i = 0 to n - 1 do
        next.(j) <- next.(j) +. (lambda.(i) *. routing.(i).(j))
      done
    done;
    delta := 0.0;
    for j = 0 to n - 1 do
      delta := Float.max !delta (Float.abs (next.(j) -. lambda.(j)));
      lambda.(j) <- next.(j)
    done;
    incr iterations
  done;
  let visits i =
    if gamma_total = 0.0 then 0.0 else lambda.(i) /. gamma_total
  in
  solve ~arrival_rate:gamma_total
    (List.init n (fun i -> (nodes.(i), visits i)))

let station t name =
  List.find (fun s -> String.equal s.node.name name) t.stations

let sojourn t name = (station t name).queue.Mm1.w

let mean_jobs t =
  List.fold_left (fun acc s -> acc +. s.queue.Mm1.l) 0.0 t.stations

let response_time t =
  if t.arrival_rate = 0.0 then 0.0 else mean_jobs t /. t.arrival_rate
