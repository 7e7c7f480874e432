type t = {
  proto : int;
  src_ip : Ip.t;
  dst_ip : Ip.t;
  src_port : int;
  dst_port : int;
}

let make ~proto ~src_ip ~dst_ip ~src_port ~dst_port =
  { proto; src_ip; dst_ip; src_port; dst_port }

let compare a b =
  let c = Int.compare a.proto b.proto in
  if c <> 0 then c
  else begin
    let c = Ip.compare a.src_ip b.src_ip in
    if c <> 0 then c
    else begin
      let c = Ip.compare a.dst_ip b.dst_ip in
      if c <> 0 then c
      else begin
        let c = Int.compare a.src_port b.src_port in
        if c <> 0 then c else Int.compare a.dst_port b.dst_port
      end
    end
  end

let equal a b = compare a b = 0

let hash t =
  let h = Hashtbl.hash in
  h (t.proto, Ip.hash t.src_ip, Ip.hash t.dst_ip, t.src_port, t.dst_port)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
