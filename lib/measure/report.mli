(** Plain-text table and CSV rendering for experiment output. *)

val table : header:string list -> rows:string list list -> string
(** Monospace table with column widths fitted to the content. *)

val print_table : header:string list -> rows:string list list -> unit

val csv : header:string list -> rows:string list list -> string

val write_csv : path:string -> header:string list -> rows:string list list -> unit

val histogram :
  ?bins:int -> ?width:int -> ?fmt:(float -> string) -> Sdn_sim.Stats.t -> string
(** Deterministic ASCII histogram of the retained samples: equal-width
    buckets between the sample min and max, one row per bucket with a
    ['#'] bar scaled so the fullest bucket spans [width] characters.
    [fmt] renders bucket edges (default ["%g"]). Returns
    ["(no samples)"] for an empty accumulator. *)

val timeline : ?events:(float * string) list -> (float * string) list -> string
(** Render a state timeseries as ["state@t0.000s -> state@t0.123s ->
    ..."] — the session-lifecycle rows of the outage report. Returns
    ["(none)"] when both lists are empty.

    [events] (default none) merges injected crash/restart and
    reconciliation events chronologically into the row, each with a
    distinguishing marker — ["![switch crash (cold)]@t0.200s"],
    ["^[switch restart]@t0.250s"], ["~[reconciliation done
    (sw-0)]@t0.300s"] — and appends a legend. With no events the
    rendering is byte-identical to the historical plain form. *)

val fmt_ms : float -> string
(** Seconds rendered as milliseconds, 3 decimals. *)

val fmt_mbps : float -> string
val fmt_pct : float -> string
