(** Pktgen-style payload tag.

    The generator stamps the first bytes of each UDP payload with a
    magic word, the flow id, the packet's sequence number within the
    flow and the flow's total packet count. The measurement layer reads
    the tag back at the switch's ingress and egress taps to attribute
    delays per flow — exactly the role pktgen sequence numbers play in
    the paper's testbed. *)

type t = { flow_id : int; seq : int; flow_packets : int }

val size : int
(** 16 bytes. *)

val write : t -> Bytes.t -> unit
(** Stamp at offset 0 of a payload buffer (needs {!size} bytes). *)

val write_at : t -> Bytes.t -> int -> unit
(** [write_at t buf off] stamps [buf.\[off..off+15\]]: {!write} at an
    offset, e.g. into an encoded UDP frame at 42. Fields are stored as
    their low 32 bits, as {!write} does. *)

val read_at : Bytes.t -> int -> t option
(** [read_at buf off] parses the tag at [buf.\[off..off+15\]] in place
    ([off] is 0 for a payload buffer); [None] when it does not fit or
    the magic word is absent. *)

val read_frame : Bytes.t -> t option
(** Parse from an encoded UDP frame or a prefix of one (payload at
    offset 42): [read_at frame 42]. *)

(** {2 In-place readers}

    The delay taps read every frame; these read the two fields they
    need without allocating. *)

val no_flow : int
(** [min_int], which no 32-bit flow id equals: what {!frame_flow_id}
    reads where there is no tag. *)

val frame_flow_id : Bytes.t -> off:int -> len:int -> int
(** [frame_flow_id buf ~off ~len] is the flow id of the tag in the UDP
    frame, or prefix of one, held in the [len] bytes of [buf] from
    [off]: [(read_frame f).flow_id] for [f] those bytes, or {!no_flow}
    where that is [None]. *)

val frame_flow_packets : Bytes.t -> off:int -> int
(** The flow's packet count from the same tag; meaningful only where
    {!frame_flow_id} found one. *)
