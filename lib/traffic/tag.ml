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

let read_at buf off =
  if off < 0 || Bytes.length buf - off < size then None
  else if not (Int32.equal (Bytes.get_int32_be buf off) magic) then None
  else
    Some
      {
        flow_id = Int32.to_int (Bytes.get_int32_be buf (off + 4));
        seq = Int32.to_int (Bytes.get_int32_be buf (off + 8));
        flow_packets = Int32.to_int (Bytes.get_int32_be buf (off + 12));
      }

let read_frame frame = read_at frame Packet.min_udp_frame
