open Sdn_sim
open Sdn_net

type t = {
  times : float array;
  ports : int array;
  frame : int -> Bytes.t;
  bytes : int;
}

let spacing ~rate_mbps ~frame_size =
  if rate_mbps <= 0.0 then invalid_arg "Patterns.spacing: rate must be positive";
  if frame_size < 0 then
    invalid_arg "Patterns.spacing: frame_size must be non-negative";
  Units.bytes_to_bits frame_size /. Units.mbps_to_bps rate_mbps

(* ---- UDP frames from a per-plan template ---- *)

(* Where the fields that differ between a plan's frames sit: the IPv4
   checksum and source address (RFC 791), the UDP source port and
   checksum (RFC 768), and the tag at the start of the payload. Every
   one is 16-bit aligned in both checksummed regions. *)
let ip_off = Ethernet.size
let ip_csum_off = ip_off + 10
let ip_src_off = ip_off + 12
let udp_off = ip_off + Ipv4.size
let udp_csum_off = udp_off + 6
let tag_off = Packet.min_udp_frame

let min_udp_frame_size = Packet.min_udp_frame + Tag.size

type template = {
  addressing : Addressing.t;
  base : Bytes.t;  (* an encoded frame with every varying field zero *)
  ip_sum : int;  (* running sum of [base]'s IPv4 header *)
  udp_sum : int;  (* of [base]'s datagram and its pseudo-header *)
}

let template who addressing ~frame_size =
  if frame_size < min_udp_frame_size then
    invalid_arg
      (Printf.sprintf
         "%s: frame_size %d is below the minimum %d (UDP headers and the \
          %d-byte tag)"
         who frame_size min_udp_frame_size Tag.size);
  let a = addressing in
  let base =
    Packet.encode
      (Packet.udp_frame_of_size ~src_mac:a.Addressing.src_mac
         ~dst_mac:a.Addressing.dst_mac ~src_ip:Ip.any ~dst_ip:a.Addressing.dst_ip
         ~src_port:0 ~dst_port:a.Addressing.dst_port ~frame_size
         ~payload_fill:(Tag.write { Tag.flow_id = 0; seq = 0; flow_packets = 0 }))
  in
  Bytes.set_uint16_be base ip_csum_off 0;
  Bytes.set_uint16_be base udp_csum_off 0;
  let udp_len = frame_size - udp_off in
  {
    addressing;
    base;
    ip_sum = Checksum.sum base ip_off Ipv4.size;
    udp_sum =
      Checksum.add
        (Udp.pseudo_header_sum ~src_ip:Ip.any ~dst_ip:a.Addressing.dst_ip
           ~proto:Ipv4.proto_udp ~l4_len:udp_len)
        (Checksum.sum base udp_off udp_len);
  }

let udp_template addressing ~frame_size =
  template "Patterns.udp_template" addressing ~frame_size

(* The sum of the two 16-bit words a 32-bit field stores: the low 32
   bits of [x], as [Bytes.set_int32_be] writes them. *)
let[@inline] words32 x = ((x lsr 16) land 0xFFFF) + (x land 0xFFFF)

(* One's-complement sums do not depend on how the words are grouped,
   and a sum is 0 only when every word is (Checksum): the template's
   sums are never 0, so adding the frame's own words to them gives
   exactly what summing the whole patched region would. *)
let udp_frame tmpl ~flow_id ~seq ~flow_packets =
  let frame = Bytes.copy tmpl.base in
  let src_ip = Addressing.src_ip tmpl.addressing ~flow_id in
  let src_port = Addressing.src_port tmpl.addressing ~flow_id in
  Ip.write src_ip frame ip_src_off;
  Bytes.set_uint16_be frame udp_off src_port;
  Tag.write_at { Tag.flow_id; seq; flow_packets } frame tag_off;
  let ip_words = words32 (Int32.to_int (Ip.to_int32 src_ip)) in
  Bytes.set_uint16_be frame ip_csum_off
    (Checksum.finish (Checksum.add tmpl.ip_sum ip_words));
  let csum =
    Checksum.finish
      (Checksum.add tmpl.udp_sum
         (ip_words + (src_port land 0xFFFF) + words32 flow_id + words32 seq
        + words32 flow_packets))
  in
  (* RFC 768: a computed checksum of zero is transmitted as all ones. *)
  Bytes.set_uint16_be frame udp_csum_off (if csum = 0 then 0xFFFF else csum);
  frame

(* ---- Timing ---- *)

let jittered_gap rng ~gap ~jitter =
  if jitter <= 0.0 then gap
  else gap *. (1.0 +. Rng.uniform rng ~lo:(-.jitter) ~hi:jitter)

(* A jitter above 1 could draw a negative gap and unsort the plan. *)
let check_jitter who jitter =
  if not (jitter <= 1.0) then invalid_arg (who ^ ": jitter must be at most 1")

(* [n] injection times from [start], a [next_gap ()] after each one,
   the last included: a second plan drawn from the same stream
   ([examples/qos_scheduling.ml]) starts after that draw. *)
let paced_times n ~start next_gap =
  let times = Array.make n start in
  let time = ref start in
  for i = 0 to n - 1 do
    times.(i) <- !time;
    time := !time +. next_gap ()
  done;
  times

(* Every UDP frame enters on port 1. *)
let udp_plan tmpl times frame =
  let n = Array.length times in
  { times; ports = Array.make n 1; frame; bytes = n * Bytes.length tmpl.base }

let exp_a ~rng ?(addressing = Addressing.default) ?(start = 0.0) ?(jitter = 0.02)
    ~n_flows ~rate_mbps ~frame_size () =
  if n_flows <= 0 then invalid_arg "Patterns.exp_a: n_flows";
  check_jitter "Patterns.exp_a" jitter;
  let gap = spacing ~rate_mbps ~frame_size in
  let tmpl = template "Patterns.exp_a" addressing ~frame_size in
  let times =
    paced_times n_flows ~start (fun () -> jittered_gap rng ~gap ~jitter)
  in
  udp_plan tmpl times (fun flow_id -> udp_frame tmpl ~flow_id ~seq:0 ~flow_packets:1)

let exp_b ~rng ?(addressing = Addressing.default) ?(start = 0.0) ?(jitter = 0.02)
    ~n_flows ~packets_per_flow ~concurrent ~rate_mbps ~frame_size () =
  if n_flows <= 0 || packets_per_flow <= 0 || concurrent <= 0 then
    invalid_arg "Patterns.exp_b: counts must be positive";
  if n_flows mod concurrent <> 0 then
    invalid_arg "Patterns.exp_b: n_flows must be a multiple of concurrent";
  check_jitter "Patterns.exp_b" jitter;
  let gap = spacing ~rate_mbps ~frame_size in
  let tmpl = template "Patterns.exp_b" addressing ~frame_size in
  let times =
    paced_times (n_flows * packets_per_flow) ~start (fun () ->
        jittered_gap rng ~gap ~jitter)
  in
  let per_batch = packets_per_flow * concurrent in
  udp_plan tmpl times (fun i ->
      (* Batch by batch; within a batch, seq by seq across its flows. *)
      let batch = i / per_batch and within = i mod per_batch in
      udp_frame tmpl
        ~flow_id:((batch * concurrent) + (within mod concurrent))
        ~seq:(within / concurrent) ~flow_packets:packets_per_flow)

let udp_burst ~rng ?(addressing = Addressing.default) ?(start = 0.0) ~n_packets
    ~rate_mbps ~frame_size () =
  if n_packets <= 0 then invalid_arg "Patterns.udp_burst: n_packets";
  let gap = spacing ~rate_mbps ~frame_size in
  let tmpl = template "Patterns.udp_burst" addressing ~frame_size in
  let times =
    paced_times n_packets ~start (fun () -> jittered_gap rng ~gap ~jitter:0.01)
  in
  udp_plan tmpl times (fun seq ->
      udp_frame tmpl ~flow_id:0 ~seq ~flow_packets:n_packets)

let poisson_flows ~rng ?(addressing = Addressing.default) ?(start = 0.0)
    ~n_flows ~rate_mbps ~frame_size () =
  if n_flows <= 0 then invalid_arg "Patterns.poisson_flows: n_flows";
  let mean_gap = spacing ~rate_mbps ~frame_size in
  let tmpl = template "Patterns.poisson_flows" addressing ~frame_size in
  let times =
    paced_times n_flows ~start (fun () -> Rng.exponential rng ~mean:mean_gap)
  in
  udp_plan tmpl times (fun flow_id -> udp_frame tmpl ~flow_id ~seq:0 ~flow_packets:1)

let poisson_mix ~rng ?(addressing = Addressing.default) ?(start = 0.0)
    ?(prime_lead = 0.05) ~n_packets ~miss_fraction ~rate_mbps ~frame_size () =
  if n_packets <= 0 then invalid_arg "Patterns.poisson_mix: n_packets";
  if
    (not (Float.is_finite miss_fraction))
    || miss_fraction < 0.0 || miss_fraction > 1.0
  then invalid_arg "Patterns.poisson_mix: miss_fraction must lie in [0, 1]";
  if not (prime_lead >= 0.0) then
    invalid_arg "Patterns.poisson_mix: prime_lead must be non-negative";
  let mean_gap = spacing ~rate_mbps ~frame_size in
  let tmpl = template "Patterns.poisson_mix" addressing ~frame_size in
  (* Index 0 is the primer: it installs flow 0's rule before the main
     phase begins, so flow 0's later packets are hits. Misses are
     random, so each index's flow and seq are drawn with its time. *)
  let n = n_packets + 1 in
  let times = Array.make n start
  and flows = Array.make n 0
  and seqs = Array.make n 0 in
  let time = ref (start +. prime_lead) in
  let next_flow = ref 1 and elephant_seq = ref 1 in
  for i = 1 to n_packets do
    times.(i) <- !time;
    if Rng.uniform rng ~lo:0.0 ~hi:1.0 < miss_fraction then begin
      flows.(i) <- !next_flow;
      incr next_flow
    end
    else begin
      seqs.(i) <- !elephant_seq;
      incr elephant_seq
    end;
    time := !time +. Rng.exponential rng ~mean:mean_gap
  done;
  let elephant_packets = !elephant_seq in
  udp_plan tmpl times (fun i ->
      let flow_id = flows.(i) in
      udp_frame tmpl ~flow_id ~seq:seqs.(i)
        ~flow_packets:(if flow_id = 0 then elephant_packets else 1))

(* ---- TCP scenarios ---- *)

let tcp_frame addressing ~flow_id ~seq_no ~ack_no ~flags ~payload_len ~reverse =
  let payload = Bytes.make payload_len '\000' in
  if payload_len >= Tag.size then
    Tag.write { Tag.flow_id; seq = Int32.to_int seq_no; flow_packets = 0 } payload;
  let src_ip = Addressing.src_ip addressing ~flow_id in
  let src_port = Addressing.src_port addressing ~flow_id in
  let a = addressing in
  let pkt =
    if reverse then
      Packet.tcp ~src_mac:a.Addressing.dst_mac ~dst_mac:a.Addressing.src_mac
        ~src_ip:a.Addressing.dst_ip ~dst_ip:src_ip
        ~src_port:a.Addressing.dst_port ~dst_port:src_port ~seq:seq_no
        ~ack_seq:ack_no ~flags ~payload ()
    else
      Packet.tcp ~src_mac:a.Addressing.src_mac ~dst_mac:a.Addressing.dst_mac
        ~src_ip ~dst_ip:a.Addressing.dst_ip ~src_port
        ~dst_port:a.Addressing.dst_port ~seq:seq_no ~ack_seq:ack_no ~flags
        ~payload ()
  in
  Packet.encode pkt

(* A stretch of a TCP plan: times, ingress ports, frames. The TCP
   scenario builds its few frames with the plan. *)
let prebuilt stretches =
  let join f = Array.concat (List.map f stretches) in
  let frames = join (fun (_, _, frames) -> frames) in
  {
    times = join (fun (times, _, _) -> times);
    ports = join (fun (_, ports, _) -> ports);
    frame = Array.get frames;
    bytes = Array.fold_left (fun acc f -> acc + Bytes.length f) 0 frames;
  }

(* SYN, SYN-ACK (the reverse direction, entering on port 2), ACK. *)
let tcp_handshake addressing ~flow_id ~start ~gap =
  let frame ~seq_no ~ack_no ~flags ~reverse =
    tcp_frame addressing ~flow_id ~seq_no ~ack_no ~flags ~payload_len:0 ~reverse
  in
  ( [| start; start +. gap; start +. (2.0 *. gap) |],
    [| 1; 2; 1 |],
    [|
      frame ~seq_no:0l ~ack_no:0l ~flags:Tcp.flags_syn ~reverse:false;
      frame ~seq_no:0l ~ack_no:1l ~flags:Tcp.flags_syn_ack ~reverse:true;
      frame ~seq_no:1l ~ack_no:1l ~flags:Tcp.flags_ack ~reverse:false;
    |] )

let tcp_data_burst ~rng addressing ~flow_id ~start ~gap ~n ~payload_len =
  ( paced_times n ~start (fun () -> jittered_gap rng ~gap ~jitter:0.01),
    Array.make n 1,
    Array.init n (fun i ->
        tcp_frame addressing ~flow_id
          ~seq_no:(Int32.of_int (1 + (i * payload_len)))
          ~ack_no:1l ~flags:Tcp.flags_psh_ack ~payload_len ~reverse:false) )

let data_payload_len ~frame_size =
  max Tag.size (frame_size - Ethernet.size - Ipv4.size - Tcp.size)

let tcp_idle_resume ~rng ?(addressing = Addressing.default) ?(start = 0.0)
    ~flow_id ~first_burst ~idle_gap ~second_burst ~rate_mbps ~frame_size () =
  if not (idle_gap >= 0.0) then
    invalid_arg "Patterns.tcp_idle_resume: idle_gap must be non-negative";
  let gap = spacing ~rate_mbps ~frame_size in
  let payload_len = data_payload_len ~frame_size in
  let handshake = tcp_handshake addressing ~flow_id ~start ~gap in
  let data_start = start +. (3.0 *. gap) in
  let ((times1, _, _) as burst1) =
    tcp_data_burst ~rng addressing ~flow_id ~start:data_start ~gap
      ~n:first_burst ~payload_len
  in
  let burst1_end =
    if first_burst = 0 then data_start else times1.(first_burst - 1)
  in
  let burst2 =
    tcp_data_burst ~rng addressing ~flow_id
      ~start:(burst1_end +. idle_gap)
      ~gap ~n:second_burst ~payload_len
  in
  prebuilt [ handshake; burst1; burst2 ]
