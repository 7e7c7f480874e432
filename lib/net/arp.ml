type oper = Request | Reply

type t = {
  oper : oper;
  sender_mac : Mac.t;
  sender_ip : Ip.t;
  target_mac : Mac.t;
  target_ip : Ip.t;
}

let size = 28

let request ~sender_mac ~sender_ip ~target_ip =
  { oper = Request; sender_mac; sender_ip; target_mac = Mac.zero; target_ip }

let reply req ~responder_mac =
  {
    oper = Reply;
    sender_mac = responder_mac;
    sender_ip = req.target_ip;
    target_mac = req.sender_mac;
    target_ip = req.sender_ip;
  }

let oper_to_int = function Request -> 1 | Reply -> 2

let write t buf off =
  Bytes.set_uint16_be buf off 1 (* htype: Ethernet *);
  Bytes.set_uint16_be buf (off + 2) Ethernet.ethertype_ipv4;
  Bytes.set_uint8 buf (off + 4) 6 (* hlen *);
  Bytes.set_uint8 buf (off + 5) 4 (* plen *);
  Bytes.set_uint16_be buf (off + 6) (oper_to_int t.oper);
  Mac.write t.sender_mac buf (off + 8);
  Ip.write t.sender_ip buf (off + 14);
  Mac.write t.target_mac buf (off + 18);
  Ip.write t.target_ip buf (off + 24)

let check buf off =
  if off + size > Bytes.length buf then Error "Arp.check: truncated packet"
  else if Bytes.get_uint16_be buf off <> 1 then Error "Arp.check: not Ethernet"
  else if Bytes.get_uint16_be buf (off + 2) <> Ethernet.ethertype_ipv4 then
    Error "Arp.check: not IPv4"
  else if Bytes.get_uint8 buf (off + 4) <> 6 || Bytes.get_uint8 buf (off + 5) <> 4
  then Error "Arp.check: bad address lengths"
  else begin
    match Bytes.get_uint16_be buf (off + 6) with
    | 1 | 2 -> Ok ()
    | op -> Error (Printf.sprintf "Arp.check: bad operation %d" op)
  end

let read buf off =
  {
    oper = (if Bytes.get_uint16_be buf (off + 6) = 1 then Request else Reply);
    sender_mac = Mac.read buf (off + 8);
    sender_ip = Ip.read buf (off + 14);
    target_mac = Mac.read buf (off + 18);
    target_ip = Ip.read buf (off + 24);
  }

let equal a b =
  a.oper = b.oper
  && Mac.equal a.sender_mac b.sender_mac
  && Ip.equal a.sender_ip b.sender_ip
  && Mac.equal a.target_mac b.target_mac
  && Ip.equal a.target_ip b.target_ip
