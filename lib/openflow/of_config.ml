type t = { flags : int; miss_send_len : int }

let body_size = 4

let write_body t buf off =
  Bytes.set_uint16_be buf off t.flags;
  Bytes.set_uint16_be buf (off + 2) t.miss_send_len

let read_body buf off ~len =
  if len < body_size then Error "Of_config.read_body: truncated"
  else
    Ok
      {
        flags = Bytes.get_uint16_be buf off;
        miss_send_len = Bytes.get_uint16_be buf (off + 2);
      }

let equal a b = a.flags = b.flags && a.miss_send_len = b.miss_send_len

let pp fmt t =
  Format.fprintf fmt "config{flags=%d miss_send_len=%d}" t.flags t.miss_send_len
