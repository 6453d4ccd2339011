(** Area-vs-delay curve extraction (Fig. 8).

    Sweeps the statistical sizer over a grid of delay targets between
    the fastest achievable design and the all-minimum-size design, and
    packages the result as a {!Spv_core.Balance.stage_model} so the
    balance/imbalance machinery can interpolate on it. *)

type profile = {
  d_fast : float;
      (** {!Lagrangian.minimum_achievable_delay}: the fastest statistical
          delay the sizer reaches *)
  model : Spv_core.Balance.stage_model;  (** the area-delay curve *)
}
(** What sizing a stage can trade.  Both parts depend only on the
    stage's topology, [tech], [ff], the sizer options and [z], never on
    its current sizes: every sizing run starts from minimum sizes, and
    the caller's sizes are restored afterwards. *)

val profile :
  ?options:Lagrangian.options -> ?ff:Spv_process.Flipflop.t -> ?n_points:int ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t -> z:float -> profile
(** The stage's fastest delay and its {!curve_points} as a stage model,
    from one fastest-delay sizing run. *)

val curve_points :
  ?options:Lagrangian.options -> ?ff:Spv_process.Flipflop.t -> ?n_points:int ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t -> z:float ->
  Spv_core.Balance.curve_point array
(** [n_points] (default 9) sizing runs; each point carries the achieved
    nominal stage delay, the area, and the decomposed delay.  Points
    are strictly monotone (non-monotone sizer artefacts are dropped);
    at least 2 points are guaranteed or [Failure] is raised. *)

val stage_model :
  ?options:Lagrangian.options -> ?ff:Spv_process.Flipflop.t -> ?n_points:int ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t -> z:float ->
  Spv_core.Balance.stage_model

val normalised :
  Spv_core.Balance.curve_point array -> (float * float) array
(** (delay, area) pairs, each normalised to the slowest point — the
    form Fig. 8 plots. *)
