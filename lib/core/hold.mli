(** Hold-time (race) analysis under variation — the early-mode
    companion of the paper's setup-time yield.

    A pipeline stage races when its {e fastest} path delivers new data
    before the receiving latch's hold window closes:
    the check is [T_C-Q + D_min >= T_hold], clock-period independent.
    Since [min_i X_i = -max_i (-X_i)], all the Clark machinery reuses
    directly.

    Extension beyond the paper (which treats only the setup side), but
    a pipeline "design for yield" flow is incomplete without it: fixing
    setup yield by downsizing non-critical gates shortens the short
    paths too, and this module prices that risk. *)

val min2 :
  Spv_stats.Gaussian.t -> Spv_stats.Gaussian.t -> rho:float ->
  Spv_stats.Gaussian.t
(** Clark-style moments of [min(X1, X2)] (exact for two variables). *)

val min_n :
  ?order:Clark.order -> Spv_stats.Gaussian.t array ->
  corr:Spv_stats.Correlation.t -> Spv_stats.Gaussian.t
(** Approximate distribution of [min_i X_i]. *)

val short_path_delay :
  Spv_process.Tech.t -> Spv_circuit.Netlist.t ->
  Spv_process.Gate_delay.t
(** Decomposed delay of the netlist's shortest input-to-output path
    (early-mode composition, mirroring
    {!Spv_circuit.Ssta.analyse_stage}). *)

val hold_yield_stage :
  Spv_process.Tech.t -> ff:Spv_process.Flipflop.t ->
  hold_ps:float -> Spv_circuit.Netlist.t -> float
(** Pr{T_C-Q + D_min >= hold_ps} for one stage.  The clk-to-Q and the
    data path share the die's variation components, so their shared
    parts add coherently — the race margin's fast tail is fatter than
    an independence assumption would give.  Raises [Invalid_argument]
    on a negative or non-finite [hold_ps]. *)

val hold_yield_pipeline :
  ?corr_length:float -> ?pitch:float ->
  Spv_process.Tech.t -> ff:Spv_process.Flipflop.t -> hold_ps:float ->
  Spv_circuit.Netlist.t array -> float
(** Pr{every stage passes its hold check}: the min over stages of the
    per-stage race margins, via {!min_n} with the spatial correlation
    of the margins.  Raises [Invalid_argument] on no stages or a
    negative or non-finite [hold_ps]. *)

val combined_yield :
  setup:float -> hold:float -> float
(** First-order combination of a setup yield and a hold yield under
    independence of the failure mechanisms (an upper bound on the true
    joint yield; the two share inter-die variation, which only raises
    it). *)
