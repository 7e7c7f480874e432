(** Per-figure reproduction drivers.

    Two sweeps feed every figure: the Section IV sweep (Exp-A, three
    buffer configurations) feeds Figs. 2-8; the Section V sweep (Exp-B,
    packet- vs flow-granularity) feeds Figs. 9-13. One table per sweep
    declares each figure once (its id, which is also its CSV file name,
    the paper's caption, title, unit, the series it plots and its
    metric); the printed tables, the CSV export and the figure ids
    below all derive from it. [run_all] executes both sweeps once and
    prints every figure as a rate-indexed table plus the paper's
    headline aggregate claims. *)

type exp_a_data = {
  no_buffer : Sweep.series;
  buffer_16 : Sweep.series;
  buffer_256 : Sweep.series;
}

type exp_b_data = { packet_gran : Sweep.series; flow_gran : Sweep.series }

val run_exp_a :
  ?rates:float list -> ?reps:int -> ?jobs:int -> unit -> exp_a_data
(** [jobs] (default 1) is handed to each {!Sweep.run}; by the
    {!Exec.run_experiments} contract it never changes the data. *)

val run_exp_b :
  ?rates:float list -> ?reps:int -> ?jobs:int -> unit -> exp_b_data

val exp_a_figures : (string * (exp_a_data -> unit)) list
(** Figs. 2(a)-8 by id ([fig2a] .. [fig8]), each paired with the
    printer of its table (rate, then mean and sd per series, 3
    decimals). *)

val exp_b_figures : (string * (exp_b_data -> unit)) list
(** Figs. 9(a)-13(b) by id ([fig9a] .. [fig13b]), as {!exp_a_figures}. *)

val run_all : ?rates:float list -> ?reps:int -> ?jobs:int -> unit -> unit

val export_csv : dir:string -> exp_a_data -> exp_b_data -> unit
(** Write one CSV per figure (rate, then mean and sd per series, 6
    decimals) into [dir], which is created if missing. File names are
    the figure ids: [fig2a.csv] .. [fig13b.csv]. *)
