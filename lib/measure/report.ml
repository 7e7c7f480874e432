let widths header rows =
  let n = List.length header in
  let w = Array.make n 0 in
  let note row =
    List.iteri (fun i cell -> if i < n then w.(i) <- max w.(i) (String.length cell)) row
  in
  note header;
  List.iter note rows;
  w

let pad cell width = cell ^ String.make (max 0 (width - String.length cell)) ' '

let render_row w row =
  String.concat "  " (List.mapi (fun i cell -> pad cell w.(i)) row)

let table ~header ~rows =
  let w = widths header rows in
  let sep =
    String.concat "  " (Array.to_list (Array.map (fun n -> String.make n '-') w))
  in
  String.concat "\n" (render_row w header :: sep :: List.map (render_row w) rows)

let print_table ~header ~rows = print_endline (table ~header ~rows)

let escape_csv cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let csv ~header ~rows =
  let line row = String.concat "," (List.map escape_csv row) in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

let write_csv ~path ~header ~rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (csv ~header ~rows))

let histogram ?(bins = 8) ?(width = 40) ?(fmt = fun v -> Printf.sprintf "%g" v)
    stats =
  let samples = Sdn_sim.Stats.samples stats in
  if Array.length samples = 0 then "(no samples)"
  else begin
    let lo = Array.fold_left Float.min samples.(0) samples in
    let hi = Array.fold_left Float.max samples.(0) samples in
    let bins = max 1 bins in
    (* A degenerate range (all samples equal) collapses to one bucket. *)
    let span = hi -. lo in
    let bins = if span <= 0.0 then 1 else bins in
    let counts = Array.make bins 0 in
    Array.iter
      (fun v ->
        let i =
          if span <= 0.0 then 0
          else Stdlib.min (bins - 1) (int_of_float ((v -. lo) /. span *. float_of_int bins))
        in
        counts.(i) <- counts.(i) + 1)
      samples;
    let peak = Array.fold_left max 1 counts in
    let rows =
      List.init bins (fun i ->
          let b_lo = lo +. (span *. float_of_int i /. float_of_int bins) in
          let b_hi = lo +. (span *. float_of_int (i + 1) /. float_of_int bins) in
          (* A non-empty bucket always shows at least one mark, however
             dominant the peak. *)
          let bar_len =
            if counts.(i) = 0 then 0
            else Stdlib.max 1 (counts.(i) * width / peak)
          in
          [
            Printf.sprintf "[%s, %s%c" (fmt b_lo) (fmt b_hi)
              (if i = bins - 1 then ']' else ')');
            String.make bar_len '#';
            string_of_int counts.(i);
          ])
    in
    table ~header:[ "bucket"; ""; "count" ] ~rows
  end

(* Crash/restart/reconciliation events carry a marker so they read
   differently from plain session-state transitions; the legend is
   appended only when events are present, keeping event-free timelines
   byte-identical to the historical rendering. *)
let event_marker what =
  let has needle =
    let nl = String.length needle and wl = String.length what in
    let rec scan i = i + nl <= wl && (String.sub what i nl = needle || scan (i + 1)) in
    scan 0
  in
  if has "reconcil" then "~" else if has "restart" then "^" else if has "crash" then "!" else "*"

let timeline ?(events = []) transitions =
  let entries =
    List.map (fun (time, state) -> (time, 0, Printf.sprintf "%s@t%.3fs" state time)) transitions
    @ List.map
        (fun (time, what) ->
          (time, 1, Printf.sprintf "%s[%s]@t%.3fs" (event_marker what) what time))
        events
  in
  let entries =
    (* Chronological; transitions before events at equal times, so
       injected events never displace the state they caused. *)
    List.stable_sort
      (fun (ta, ka, _) (tb, kb, _) ->
        match Float.compare ta tb with 0 -> Int.compare ka kb | c -> c)
      entries
  in
  match entries with
  | [] -> "(none)"
  | _ ->
      let body = String.concat " -> " (List.map (fun (_, _, s) -> s) entries) in
      if events = [] then body
      else body ^ " [legend: ![crash] ^[restart] ~[reconciliation]]"

let fmt_ms seconds = Printf.sprintf "%.3f" (seconds *. 1000.0)
let fmt_mbps v = Printf.sprintf "%.2f" v
let fmt_pct v = Printf.sprintf "%.1f" v
