(** Global pipeline optimisation (Fig. 9, Tables II and III).

    Conventional flow: each stage is sized independently for the
    pipeline delay target at the per-stage yield budget
    [Y0 = Y^(1/N)] ({!individually_optimised}).  Under variation some
    stage may be unable to reach its budget and the pipeline misses Y.

    The global algorithm sizes {e one stage at a time} while evaluating
    the statistical delay of the {e whole} pipeline (Clark), processing
    stages in the eq. 14 slope order:

    - {!ensure_yield} (Table II): tighten the cheap-delay stages
      (low R_i) beyond their individual budgets until the pipeline
      yield target is met, at minimal area increase;
    - {!minimise_area} (Table III): relax the cheap-area stages
      (high R_i) while the pipeline yield target is still met. *)

type result = {
  nets : Spv_circuit.Netlist.t array;  (** sized netlists, in stage order *)
  pipeline : Spv_core.Pipeline.t;
  stage_targets : float array;  (** per-stage stat-delay targets, ps *)
  stage_areas : float array;
  stage_yields : float array;
      (** standalone per-stage yields at the pipeline delay target *)
  total_area : float;
  pipeline_yield : float;
      (** yield at the pipeline delay target: the eq. 8 product of
          stage yields *)
  order : int array;  (** R_i processing order used *)
}

val individually_optimised :
  ?options:Lagrangian.options -> ?ff:Spv_process.Flipflop.t ->
  ?pitch:float -> Spv_process.Tech.t -> Spv_circuit.Netlist.t array ->
  t_target:float -> yield_target:float -> result
(** The conventional baseline: every stage independently sized for
    [mu + z Y0 sigma <= t_target], [Y0 = yield_target^(1/N)]. *)

val ensure_yield :
  ?options:Lagrangian.options -> ?ff:Spv_process.Flipflop.t -> ?pitch:float ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t array -> t_target:float ->
  yield_target:float -> result
(** Start from the baseline; while the pipeline yield is below target,
    walk stages in ascending-R_i order and tighten each one's stat
    target by 3%, re-sizing it and re-evaluating the full pipeline.
    Stops when the target is met, no stage can improve, or 25 passes
    elapse. *)

val minimise_area :
  ?options:Lagrangian.options -> ?ff:Spv_process.Flipflop.t -> ?pitch:float ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t array -> t_target:float ->
  yield_target:float -> result
(** Start from {!ensure_yield}'s design; walk stages in descending-R_i
    order relaxing each one's stat target by 1.5% as long as the
    pipeline yield stays at or above target; revert moves that break
    it.  At most 25 passes.

    Every yield here is the eq. 8 independent product: it matches the
    paper's Table II/III arithmetic and is the conservative choice
    (correlation only raises the joint yield). *)
