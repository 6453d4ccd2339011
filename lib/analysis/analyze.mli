(** The analyzer driver: run every pass over one evaluation context
    and aggregate the findings.

    Passes (see the per-module docs):
    - ["bounds"] — interval delay bounds ({!Bounds});
    - ["affine"] — correlation-aware affine (zonotope) enclosures
      nested inside the interval bounds, with width ratios and
      per-symbol-class sensitivity attributions ({!Affine_sta});
    - ["reconvergence"] — reconvergent-fanout detection, gate-level
      contexts only ({!Structure.netlist_findings});
    - ["correlation"] — tie/skew and Clark-order risk
      ({!Structure.pipeline_findings});
    - ["criticality"] — static criticality and prunability, gate-level
      contexts only ({!Static_criticality});
    - ["cones"] — failure-cone criticality: per-stage (and, gate-level
      only, per-gate) criticality probability bounds, the statistical
      slack form with sensitivity attribution (with a [t_target]), and
      the ranked dominant failure cones whose shift directions drive
      the engine's importance proposal ({!Cones});
    - ["sensitivity"] — certified derivative enclosures of stage
      mu/sigma (and, with a [t_target], the Clark pipeline yield) with
      respect to critical-path gate sizes over a relative design box,
      with monotone-sign certificates ({!Sensitivity}, {!Dominance});
      gate-level contexts only, degrades to a [Warn] otherwise;
    - ["bounds-check"] — with a [t_target], the closed-form engine
      estimators (clark / independent / quadrature) are evaluated and
      asserted against the Fréchet yield bounds; a violation is an
      [Error] finding;
    - ["affine-check"] — the same estimates asserted against the
      affine yield envelope ({!Affine_sta.check});
    - ["hier"] — opt-in ([~hier:true]): the context's stages are
      decomposed into block macros ({!Spv_circuit.Macro}) and the
      macro-composed model is compared against the flat reference —
      per-stage block counts and moment gaps, plus the pipeline-level
      Clark yield (or mean, without a [t_target]) with its
      [hier_bound].  Reported as data, never asserted against the
      flat certificates: a macro-model value outside a flat bound is
      the documented model gap, not an analysis error. *)

type result = {
  report : Report.t;  (** sorted findings of every pass *)
  bounds : Bounds.t;
  affine : Affine_sta.t;
  criticality : Static_criticality.t array option;  (** per stage; gate-level only *)
  cones : Cones.t;  (** failure-cone criticality pass *)
  sensitivity : Dominance.t;  (** certified derivative enclosures pass *)
}

val run :
  ?k:float -> ?t_target:float -> ?hier:bool -> Spv_engine.Engine.Ctx.t ->
  result
(** Raises [Invalid_argument] on invalid [k] and [Failure] via the
    engine only if engine debug checks are enabled and violated.
    [hier] (default false) adds the ["hier"] pass; on a flat
    gate-level context it builds the hierarchical twin itself, on a
    hierarchical context it reuses it, and on a moments-only context
    it degrades to a [Warn] finding. *)
