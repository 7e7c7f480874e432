type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

let no_flags =
  { fin = false; syn = false; rst = false; psh = false; ack = false; urg = false }

let flags_syn = { no_flags with syn = true }
let flags_syn_ack = { no_flags with syn = true; ack = true }
let flags_ack = { no_flags with ack = true }
let flags_psh_ack = { no_flags with psh = true; ack = true }

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : flags;
  window : int;
}

let size = 20

let flags_to_int f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

let flags_of_int i =
  {
    fin = i land 0x01 <> 0;
    syn = i land 0x02 <> 0;
    rst = i land 0x04 <> 0;
    psh = i land 0x08 <> 0;
    ack = i land 0x10 <> 0;
    urg = i land 0x20 <> 0;
  }

let write t ~src_ip ~dst_ip ~payload buf off =
  let len = size + Bytes.length payload in
  (* The pseudo-header carries the segment length in 16 bits. *)
  if len > 0xFFFF then
    invalid_arg "Tcp.write: length exceeds the 16-bit pseudo-header field";
  Bytes.set_uint16_be buf off t.src_port;
  Bytes.set_uint16_be buf (off + 2) t.dst_port;
  Bytes.set_int32_be buf (off + 4) t.seq;
  Bytes.set_int32_be buf (off + 8) t.ack_seq;
  Bytes.set_uint8 buf (off + 12) (5 lsl 4) (* data offset 5, no options *);
  Bytes.set_uint8 buf (off + 13) (flags_to_int t.flags);
  Bytes.set_uint16_be buf (off + 14) t.window;
  Bytes.set_uint16_be buf (off + 16) 0 (* checksum placeholder *);
  Bytes.set_uint16_be buf (off + 18) 0 (* urgent pointer *);
  let pseudo =
    Udp.pseudo_header_sum ~src_ip ~dst_ip ~proto:Ipv4.proto_tcp ~l4_len:len
  in
  let body = Checksum.sum buf off len in
  Bytes.set_uint16_be buf (off + 16) (Checksum.finish (Checksum.add pseudo body))

let check buf off ~len =
  if len < size || off + len > Bytes.length buf then
    Error "Tcp.check: truncated segment"
  else if Bytes.get_uint8 buf (off + 12) lsr 4 <> 5 then
    Error "Tcp.check: options unsupported"
  else if not (Udp.checksum_ok buf off ~len ~proto:Ipv4.proto_tcp) then
    Error "Tcp.check: bad checksum"
  else Ok ()

let read buf off =
  {
    src_port = Bytes.get_uint16_be buf off;
    dst_port = Bytes.get_uint16_be buf (off + 2);
    seq = Bytes.get_int32_be buf (off + 4);
    ack_seq = Bytes.get_int32_be buf (off + 8);
    flags = flags_of_int (Bytes.get_uint8 buf (off + 13));
    window = Bytes.get_uint16_be buf (off + 14);
  }

let equal a b =
  a.src_port = b.src_port && a.dst_port = b.dst_port
  && Int32.equal a.seq b.seq
  && Int32.equal a.ack_seq b.ack_seq
  && a.flags = b.flags && a.window = b.window
