type stats = {
  units_in_use : int;
  units_total : int;
  flows_buffered : int;
  packets_buffered : int;
  resends : int;
}

type backoff = {
  timeout : float;
  multiplier : float;
  cap : float;
  max_resends : int;
}

let default_backoff ~timeout =
  { timeout; multiplier = 1.0; cap = timeout; max_resends = 3 }

type t =
  | Flow_buffer_enable of backoff
  | Flow_buffer_disable
  | Flow_buffer_stats_request
  | Flow_buffer_stats_reply of stats

(* The experimenter id this reproduction registers for itself. *)
let vendor_id = 0x00FB_BF01l

let subtype_enable = 0
let subtype_disable = 1
let subtype_stats_request = 2
let subtype_stats_reply = 3

(* vendor id + subtype *)
let preamble = 8

let body_size = function
  | Flow_buffer_enable _ -> preamble + 16
  | Flow_buffer_disable | Flow_buffer_stats_request -> preamble
  | Flow_buffer_stats_reply _ -> preamble + 20

(* Durations ride as milliseconds and the multiplier as thousandths,
   all in 32-bit fields: enough range and precision for any plausible
   re-request policy without floats on the wire. *)
let to_milli x = Int32.of_int (int_of_float (Float.round (x *. 1000.0)))
let of_milli v = float_of_int (Int32.to_int v) /. 1000.0

let write_body t buf off =
  Bytes.set_int32_be buf off vendor_id;
  let subtype =
    match t with
    | Flow_buffer_enable _ -> subtype_enable
    | Flow_buffer_disable -> subtype_disable
    | Flow_buffer_stats_request -> subtype_stats_request
    | Flow_buffer_stats_reply _ -> subtype_stats_reply
  in
  Bytes.set_int32_be buf (off + 4) (Int32.of_int subtype);
  match t with
  | Flow_buffer_enable b ->
      Bytes.set_int32_be buf (off + preamble) (to_milli b.timeout);
      Bytes.set_int32_be buf (off + preamble + 4) (to_milli b.multiplier);
      Bytes.set_int32_be buf (off + preamble + 8) (to_milli b.cap);
      Bytes.set_int32_be buf (off + preamble + 12) (Int32.of_int b.max_resends)
  | Flow_buffer_disable | Flow_buffer_stats_request -> ()
  | Flow_buffer_stats_reply s ->
      let set i v = Bytes.set_int32_be buf (off + preamble + (i * 4)) (Int32.of_int v) in
      set 0 s.units_in_use;
      set 1 s.units_total;
      set 2 s.flows_buffered;
      set 3 s.packets_buffered;
      set 4 s.resends

let read_body buf off ~len =
  if len < preamble then Error "Of_ext.read_body: truncated"
  else begin
    let vendor = Bytes.get_int32_be buf off in
    if not (Int32.equal vendor vendor_id) then
      Error (Printf.sprintf "Of_ext.read_body: unknown vendor 0x%08lx" vendor)
    else begin
      let subtype = Int32.to_int (Bytes.get_int32_be buf (off + 4)) in
      if subtype = subtype_enable then begin
        if len < preamble + 16 then Error "Of_ext.read_body: truncated enable"
        else begin
          let field i = Bytes.get_int32_be buf (off + preamble + (i * 4)) in
          Ok
            (Flow_buffer_enable
               {
                 timeout = of_milli (field 0);
                 multiplier = of_milli (field 1);
                 cap = of_milli (field 2);
                 max_resends = Int32.to_int (field 3);
               })
        end
      end
      else if subtype = subtype_disable then Ok Flow_buffer_disable
      else if subtype = subtype_stats_request then Ok Flow_buffer_stats_request
      else if subtype = subtype_stats_reply then begin
        if len < preamble + 20 then Error "Of_ext.read_body: truncated stats"
        else begin
          let get i = Int32.to_int (Bytes.get_int32_be buf (off + preamble + (i * 4))) in
          Ok
            (Flow_buffer_stats_reply
               {
                 units_in_use = get 0;
                 units_total = get 1;
                 flows_buffered = get 2;
                 packets_buffered = get 3;
                 resends = get 4;
               })
        end
      end
      else Error (Printf.sprintf "Of_ext.read_body: unknown subtype %d" subtype)
    end
  end

let equal a b =
  let close x y = Float.abs (x -. y) < 0.001 in
  match (a, b) with
  | Flow_buffer_enable x, Flow_buffer_enable y ->
      close x.timeout y.timeout
      && close x.multiplier y.multiplier
      && close x.cap y.cap
      && x.max_resends = y.max_resends
  | Flow_buffer_disable, Flow_buffer_disable -> true
  | Flow_buffer_stats_request, Flow_buffer_stats_request -> true
  | Flow_buffer_stats_reply x, Flow_buffer_stats_reply y -> x = y
  | ( ( Flow_buffer_enable _ | Flow_buffer_disable | Flow_buffer_stats_request
      | Flow_buffer_stats_reply _ ),
      _ ) ->
      false

let pp fmt = function
  | Flow_buffer_enable b ->
      Format.fprintf fmt
        "flow_buffer_enable{timeout=%.3fs x%.2f cap=%.3fs max_resends=%d}"
        b.timeout b.multiplier b.cap b.max_resends
  | Flow_buffer_disable -> Format.pp_print_string fmt "flow_buffer_disable"
  | Flow_buffer_stats_request ->
      Format.pp_print_string fmt "flow_buffer_stats_request"
  | Flow_buffer_stats_reply s ->
      Format.fprintf fmt
        "flow_buffer_stats{in_use=%d/%d flows=%d packets=%d resends=%d}"
        s.units_in_use s.units_total s.flows_buffered s.packets_buffered
        s.resends
