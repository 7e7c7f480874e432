let mbps_to_bps x = x *. 1_000_000.0

let bps_to_mbps x = x /. 1_000_000.0

let bytes_to_bits b = float_of_int b *. 8.0

let transmission_time ~bytes ~bandwidth_bps =
  if bandwidth_bps <= 0.0 then invalid_arg "Units.transmission_time: bandwidth";
  bytes_to_bits bytes /. bandwidth_bps

let ms x = x *. 1e-3

let us x = x *. 1e-6

let packets_per_second ~rate_mbps ~frame_bytes =
  if frame_bytes <= 0 then invalid_arg "Units.packets_per_second: frame_bytes";
  mbps_to_bps rate_mbps /. bytes_to_bits frame_bytes
