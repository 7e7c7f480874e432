(** Multi-core FIFO service-queue CPU model.

    A [Cpu.t] models one process's compute resource (the Open vSwitch
    daemon, the Floodlight controller) as [cores] identical servers fed
    by a single FIFO queue. Submitting a job specifies its nominal
    service time; the effective service time is

    [work * service_scale ~queue_len * noise ()]

    where [service_scale] lets callers model load-dependent behaviour:

    - batching amortization (factor < 1 as the queue grows) for the
      switch slow path — Open vSwitch processes upcalls in batches, so
      per-packet cost falls under load, which is what makes the
      switch-usage curve of the paper's Fig. 4 rise quickly and then
      flatten;
    - congestion penalty (factor > 1 as the queue grows) for the
      controller handling many concurrent large [packet_in]s — GC and
      scheduling pressure, producing the super-linear controller-usage
      growth of Fig. 3 without buffers.

    Busy time is accounted as a time integral of the number of busy
    cores, so utilization over a window can exceed 100% exactly as the
    paper's multi-core [top] measurements do.

    Each core serves at most one job and owns one re-armable completion
    event ({!Engine.event}), armed with a fresh insertion order when a
    job starts on it, as scheduling the completion then would. The
    cores of one CPU can complete out of order (service noise), so each
    has its own event. Only a job that finds every core busy is
    recorded in the waiting queue; [service_scale] and [noise] are
    drawn in that order as each job starts. *)

type t

val create :
  Engine.t ->
  name:string ->
  cores:int ->
  ?service_scale:(queue_len:int -> float) ->
  ?noise:(unit -> float) ->
  unit ->
  t
(** [create engine ~name ~cores ()] is an idle CPU. [service_scale]
    defaults to [fun ~queue_len:_ -> 1.0]; [noise] defaults to
    [fun () -> 1.0]. *)

val submit : t -> work_s:float -> (unit -> unit) -> unit
(** [submit t ~work_s k] enqueues a job whose nominal service time is
    [work_s] seconds; [k] runs when the job completes. Jobs start in
    FIFO order as cores free up. A negative or NaN [work_s] raises
    [Invalid_argument] and queues nothing. *)

val name : t -> string
val cores : t -> int

val queue_length : t -> int
(** Jobs waiting (not counting those in service). *)

val in_service : t -> int
(** Cores currently busy. *)

val jobs_completed : t -> int

val busy_core_seconds : t -> float
(** Integral, up to the current engine time, of the number of busy
    cores. Utilization percent over a window [\[a, b\]] is
    [(I(b) - I(a)) / (b - a) * 100] where [I] is this integral
    snapshot taken at the corresponding instants. *)

val utilization_percent : t -> integral_at_start:float -> start:float -> float
(** Convenience: utilization (in percent of one core) from [start] —
    where the busy integral was [integral_at_start] — until now. *)

val max_queue_length : t -> int
(** High-watermark of the waiting queue. *)
