(** Ablation studies of the design choices DESIGN.md calls out.

    Each study prints a self-contained table. [run_all] runs every
    study in the order below; the CLI's [ablations] subcommand calls
    it.

    - {!buffer_sizing}: how many buffer units a given line rate needs —
      the paper's closing observation of Section IV.G ("no more than 80
      buffer units can meet the maximum sending rate", i.e. an 80 KB
      buffer suffices for a 100 Mbps interface).
    - {!miss_send_len_sweep}: the PACKET_IN truncation length trades
      control load against how much of the packet the controller can
      inspect (the paper notes security applications may want the whole
      packet).
    - {!release_strategy}: the paper's FLOW_MOD + PACKET_OUT response
      pair vs releasing the buffer inside the FLOW_MOD.
    - {!resend_timeout_under_loss}: the flow-granularity re-request
      timeout (Algorithm 1 lines 12-13) is the mechanism's safety net;
      this study injects control-channel loss and measures delivery
      and duplicate requests across timeout settings.
    - {!rule_install_latency}: how datapath rule-programming latency
      reshapes the Exp-B comparison (the regime discussed as deviation
      D4 in EXPERIMENTS.md).
    - A proactive-provisioning baseline: pre-installing every rule
      removes the request traffic entirely, at the cost of knowing and
      holding all flows up front — the trade-off that motivates
      reducing the reactive path's cost rather than abandoning it. *)

val buffer_sizing : ?rates:float list -> ?sizes:int list -> ?seed:int -> unit -> unit

val miss_send_len_sweep : ?lengths:int list -> ?rate:float -> ?seed:int -> unit -> unit

val release_strategy : ?rate:float -> ?seed:int -> unit -> unit

val resend_timeout_under_loss :
  ?loss_rates:float list -> ?timeouts:float list -> ?seed:int -> unit -> unit

val rule_install_latency :
  ?latencies:float list -> ?rate:float -> ?seed:int -> unit -> unit

val run_all : unit -> unit
