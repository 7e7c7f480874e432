type t = {
  tos : int;
  ident : int;
  dont_fragment : bool;
  ttl : int;
  proto : int;
  src : Ip.t;
  dst : Ip.t;
}

let size = 20

let proto_tcp = 6
let proto_udp = 17

let write t ~payload_len buf off =
  if payload_len < 0 then invalid_arg "Ipv4.write: negative payload length";
  (* Bytes.set_uint16_be would wrap a larger total length silently. *)
  if size + payload_len > 0xFFFF then
    invalid_arg "Ipv4.write: total length exceeds the 16-bit field";
  Bytes.set_uint8 buf off 0x45 (* version 4, IHL 5 *);
  Bytes.set_uint8 buf (off + 1) t.tos;
  Bytes.set_uint16_be buf (off + 2) (size + payload_len);
  Bytes.set_uint16_be buf (off + 4) t.ident;
  Bytes.set_uint16_be buf (off + 6) (if t.dont_fragment then 0x4000 else 0);
  Bytes.set_uint8 buf (off + 8) t.ttl;
  Bytes.set_uint8 buf (off + 9) t.proto;
  Bytes.set_uint16_be buf (off + 10) 0;
  Ip.write t.src buf (off + 12);
  Ip.write t.dst buf (off + 16);
  let csum = Checksum.over buf off size in
  Bytes.set_uint16_be buf (off + 10) csum

let check buf off =
  if off + size > Bytes.length buf then Error "Ipv4.check: truncated header"
  else begin
    let vihl = Bytes.get_uint8 buf off in
    if vihl lsr 4 <> 4 then Error "Ipv4.check: not IPv4"
    else if vihl land 0xF <> 5 then Error "Ipv4.check: options unsupported"
    else if not (Checksum.verify buf off size) then
      Error "Ipv4.check: bad header checksum"
    else if Bytes.get_uint16_be buf (off + 2) < size then
      Error "Ipv4.check: bad total length"
    else Ok ()
  end

let payload_len buf off = Bytes.get_uint16_be buf (off + 2) - size
let proto buf off = Bytes.get_uint8 buf (off + 9)

let read buf off =
  {
    tos = Bytes.get_uint8 buf (off + 1);
    ident = Bytes.get_uint16_be buf (off + 4);
    dont_fragment = Bytes.get_uint16_be buf (off + 6) land 0x4000 <> 0;
    ttl = Bytes.get_uint8 buf (off + 8);
    proto = proto buf off;
    src = Ip.read buf (off + 12);
    dst = Ip.read buf (off + 16);
  }

let equal a b =
  a.tos = b.tos && a.ident = b.ident && a.dont_fragment = b.dont_fragment
  && a.ttl = b.ttl && a.proto = b.proto && Ip.equal a.src b.src
  && Ip.equal a.dst b.dst
