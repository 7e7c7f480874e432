open Sdn_net

type t = { flow_id : int; seq : int; flow_packets : int }

let magic = 0x5344_4E47l (* "SDNG" *)

let size = 16

let write_at t buf off =
  Bytes.set_int32_be buf off magic;
  Bytes.set_int32_be buf (off + 4) (Int32.of_int t.flow_id);
  Bytes.set_int32_be buf (off + 8) (Int32.of_int t.seq);
  Bytes.set_int32_be buf (off + 12) (Int32.of_int t.flow_packets)

let write t buf = write_at t buf 0

(* Whether a tag sits at [off], wholly inside the first [stop] bytes
   of [buf]. *)
let present buf off ~stop =
  off >= 0 && stop - off >= size && stop <= Bytes.length buf
  && Int32.equal (Bytes.get_int32_be buf off) magic

let field buf off i = Int32.to_int (Bytes.get_int32_be buf (off + (4 * i)))

let read_at buf off =
  if not (present buf off ~stop:(Bytes.length buf)) then None
  else
    Some
      {
        flow_id = field buf off 1;
        seq = field buf off 2;
        flow_packets = field buf off 3;
      }

let read_frame frame = read_at frame Packet.min_udp_frame

let no_flow = min_int

let frame_flow_id buf ~off ~len =
  let at = off + Packet.min_udp_frame in
  if present buf at ~stop:(off + len) then field buf at 1 else no_flow

let frame_flow_packets buf ~off = field buf (off + Packet.min_udp_frame) 3
