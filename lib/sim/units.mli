(** Unit conversions used throughout the testbed.

    Internal conventions: time in seconds, sizes in bytes, link speeds
    in bits per second. The paper reports rates in Mbps and delays in
    milliseconds; these helpers keep the conversions in one place. *)

val mbps_to_bps : float -> float
(** Megabits per second to bits per second. *)

val bps_to_mbps : float -> float

val bytes_to_bits : int -> float

val transmission_time : bytes:int -> bandwidth_bps:float -> float
(** Serialization delay of [bytes] on a link of the given speed. *)

val ms : float -> float
(** [ms x] is [x] milliseconds expressed in seconds. *)

val us : float -> float
(** [us x] is [x] microseconds expressed in seconds. *)

val packets_per_second : rate_mbps:float -> frame_bytes:int -> float
(** Packet rate achieved by sending fixed-size frames at [rate_mbps]. *)
