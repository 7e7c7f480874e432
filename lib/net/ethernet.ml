type t = { dst : Mac.t; src : Mac.t; ethertype : int }

let size = 14

let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806

let write t buf off =
  Mac.write t.dst buf off;
  Mac.write t.src buf (off + 6);
  Bytes.set_uint16_be buf (off + 12) t.ethertype

let check buf off =
  if off + size > Bytes.length buf then Error "Ethernet.check: truncated header"
  else Ok ()

let ethertype buf off = Bytes.get_uint16_be buf (off + 12)

let read buf off =
  {
    dst = Mac.read buf off;
    src = Mac.read buf (off + 6);
    ethertype = ethertype buf off;
  }

let equal a b =
  Mac.equal a.dst b.dst && Mac.equal a.src b.src && a.ethertype = b.ethertype
