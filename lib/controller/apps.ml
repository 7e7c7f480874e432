open Sdn_net

let forwarding ~hosts ?(idle_timeout = 5) () =
  let by_ip = Hashtbl.create 8 in
  let by_mac = Hashtbl.create 8 in
  List.iter
    (fun (ip, mac, port) ->
      Hashtbl.replace by_ip (Ip.to_int32 ip) port;
      Hashtbl.replace by_mac (Mac.to_int64 mac) port)
    hosts;
  let decide (ctx : App.context) =
    let port_of_ip =
      match ctx.App.headers.Packet.h_ipv4 with
      | Some ip -> Hashtbl.find_opt by_ip (Ip.to_int32 ip.Ipv4.dst)
      | None -> None
    in
    let port =
      match port_of_ip with
      | Some _ as p -> p
      | None ->
          Hashtbl.find_opt by_mac
            (Mac.to_int64 ctx.App.headers.Packet.h_eth.Ethernet.dst)
    in
    match port with
    | Some out_port -> App.Forward { App.out_port; idle_timeout }
    | None -> App.Flood
  in
  { App.name = "forwarding"; decide }

let qos_forwarding ~hosts ~classify ?(idle_timeout = 5) () =
  let plain = forwarding ~hosts ~idle_timeout () in
  let decide (ctx : App.context) =
    match plain.App.decide ctx with
    | App.Forward f -> App.Forward_queued { App.f; queue_id = classify ctx }
    | (App.Flood | App.Forward_queued _) as d -> d
  in
  { App.name = "qos-forwarding"; decide }
