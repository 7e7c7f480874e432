type t = { src_port : int; dst_port : int }

let size = 8

(* The 16-bit words of the 12-byte pseudo-header: both addresses, the
   zero byte with the protocol, and the length. *)
let pseudo_header_sum ~src_ip ~dst_ip ~proto ~l4_len =
  let words ip =
    let a = Int32.to_int (Ip.to_int32 ip) land 0xFFFF_FFFF in
    (a lsr 16) + (a land 0xFFFF)
  in
  Checksum.add
    (words src_ip + words dst_ip)
    ((proto land 0xFF) + (l4_len land 0xFFFF))

let write t ~src_ip ~dst_ip ~payload buf off =
  let len = size + Bytes.length payload in
  if len > 0xFFFF then
    invalid_arg "Udp.write: length exceeds the 16-bit length field";
  Bytes.set_uint16_be buf off t.src_port;
  Bytes.set_uint16_be buf (off + 2) t.dst_port;
  Bytes.set_uint16_be buf (off + 4) len;
  Bytes.set_uint16_be buf (off + 6) 0;
  let pseudo =
    pseudo_header_sum ~src_ip ~dst_ip ~proto:Ipv4.proto_udp ~l4_len:len
  in
  let body = Checksum.sum buf off len in
  let csum = Checksum.finish (Checksum.add pseudo body) in
  (* RFC 768: a computed checksum of zero is transmitted as all ones. *)
  let csum = if csum = 0 then 0xFFFF else csum in
  Bytes.set_uint16_be buf (off + 6) csum

(* The segment at [off] summed with its pseudo-header, in place: the
   IPv4 header before it (no options) ends with both addresses, so one
   pass from [off - 8] sums them with the segment. That equals the sum
   [pseudo_header_sum] and a separate pass give, since a fold is 0 only
   for an all-zero input. A segment holding its own valid checksum sums
   to 0xFFFF. *)
let checksum_ok buf off ~len ~proto =
  Checksum.add
    (Checksum.sum buf (off - 8) (len + 8))
    ((proto land 0xFF) + (len land 0xFFFF))
  = 0xFFFF

let check buf off ~len =
  if len < size || off + len > Bytes.length buf then
    Error "Udp.check: truncated datagram"
  else if Bytes.get_uint16_be buf (off + 4) <> len then
    Error "Udp.check: length field mismatch"
  else if
    (* A zero checksum means none was computed. *)
    Bytes.get_uint16_be buf (off + 6) <> 0
    && not (checksum_ok buf off ~len ~proto:Ipv4.proto_udp)
  then Error "Udp.check: bad checksum"
  else Ok ()

let read buf off =
  {
    src_port = Bytes.get_uint16_be buf off;
    dst_port = Bytes.get_uint16_be buf (off + 2);
  }

let equal a b = a.src_port = b.src_port && a.dst_port = b.dst_port
