type reason = No_match | Action

type t = {
  buffer_id : int32;
  total_len : int;
  in_port : int;
  reason : reason;
  data : Bytes.t;
}

let default_miss_send_len = 128

(* Frames are immutable by convention throughout the simulator, so the
   full-frame and full-prefix cases alias [frame] instead of copying —
   packet_in construction is on the per-packet hot path. *)
let make ~buffer_id ~in_port ~reason ~frame ~miss_send_len =
  let total_len = Bytes.length frame in
  let data =
    match miss_send_len with
    | None -> frame
    | Some n -> if n >= total_len then frame else Bytes.sub frame 0 n
  in
  { buffer_id; total_len; in_port; reason; data }

let fixed_body = 4 + 2 + 2 + 1 + 1

let body_size t = fixed_body + Bytes.length t.data

let reason_to_int = function No_match -> 0 | Action -> 1

let reason_of_int = function
  | 0 -> Ok No_match
  | 1 -> Ok Action
  | n -> Error (Printf.sprintf "Of_packet_in: unknown reason %d" n)

let write_body t buf off =
  Bytes.set_int32_be buf off t.buffer_id;
  Bytes.set_uint16_be buf (off + 4) t.total_len;
  Bytes.set_uint16_be buf (off + 6) t.in_port;
  Bytes.set_uint8 buf (off + 8) (reason_to_int t.reason);
  Bytes.set_uint8 buf (off + 9) 0;
  Bytes.blit t.data 0 buf (off + fixed_body) (Bytes.length t.data)

let read_body buf off ~len =
  if len < fixed_body then Error "Of_packet_in.read_body: truncated"
  else begin
    match reason_of_int (Bytes.get_uint8 buf (off + 8)) with
    | Error _ as e -> e
    | Ok reason ->
        Ok
          {
            buffer_id = Bytes.get_int32_be buf off;
            total_len = Bytes.get_uint16_be buf (off + 4);
            in_port = Bytes.get_uint16_be buf (off + 6);
            reason;
            data = Bytes.sub buf (off + fixed_body) (len - fixed_body);
          }
  end

let data_length buf off ~len =
  if len < fixed_body then -1
  else
    match Bytes.get_uint8 buf (off + 8) with
    | 0 | 1 -> len - fixed_body
    | _ -> -1

let equal a b =
  Int32.equal a.buffer_id b.buffer_id
  && a.total_len = b.total_len && a.in_port = b.in_port && a.reason = b.reason
  && Bytes.equal a.data b.data

let pp fmt t =
  Format.fprintf fmt
    "packet_in{buffer=%ld total_len=%d in_port=%d reason=%s data=%dB}"
    t.buffer_id t.total_len t.in_port
    (match t.reason with No_match -> "NO_MATCH" | Action -> "ACTION")
    (Bytes.length t.data)
