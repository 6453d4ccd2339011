(** Failure-cone criticality analysis: static criticality
    probabilities, statistical slack, and the analyzer-derived
    importance-sampling proposal.

    Everything is computed from the affine/zonotope delay forms of
    {!Affine_sta} — the exact models of what the engine's samplers
    draw — so every probability is a {e guaranteed enclosure}, not an
    estimate:

    - {b stage criticality} [P{stage s sets the pipeline delay}]: the
      event is the intersection over [j <> s] of [{X_j <= X_s}], and
      every pairwise difference of model forms is purely affine — an
      exact Gaussian — so both bounds are exact probability
      statements: below, the union bound on the complement
      [1 - sum_j P{X_j > X_s}]; above, [P{X_c <= X_s}] against the
      reference (largest-mean other) stage [c], a superset of the
      criticality event;
    - {b gate criticality} (within its stage) [P{gate g lies on a
      critical path}]: the stage delay is exactly the max over
      input-to-output gate paths of the path's delay sum, and each
      path sum is purely affine.  For stages with at most 1024 such
      paths the lower bound is the union bound over near-exact events,
      [1 - sum over paths q avoiding g of P{sum_q > path_g}] with
      [path_g] the best {e nominal} path through [g]; larger stages
      fall back to reading the chord-max stage form against [path_g]
      (sound, usually vacuous at [k = 6]).  The upper bound is the
      probability that the chord-max through-form of [g] reaches the
      exact form of the nominal critical path — intersected with
      {!Static_criticality}'s corner proof (a gate proven
      never-critical inside the [+-k] box can only be critical on the
      escape mass).  Every pairwise comparison absorbs the
      subtraction's cancellation dust ({!Affine.absorb_dust}), so a
      gate on the reference path reads as a sure tie rather than a
      spurious coin flip;
    - {b statistical slack}: the signed margin [T_target - D] as an
      affine form over the shared noise symbols, with per-symbol and
      per-class sensitivity attribution;
    - {b dominant failure cones}: sub-DAGs rooted at the reconvergent
      stems of {!Structure}, restricted to output-reaching gates,
      ranked by the Fréchet combination of stage and member-gate
      criticality bounds.  Each carries the unit shift direction of
      its stage in the whitened (Cholesky) noise basis — the
      direction the {!proposal} mixture shifts the sampler along. *)

type stage_crit = {
  sc_stage : int;
  sc_crit : Interval.t;  (** enclosure of P{stage sets pipeline delay} *)
  sc_depth : float option;
      (** uncapped whitened crossing depth [(t - mu_s) / sigma_s] to
          the target ([None] without a target or for a deterministic
          stage) *)
}

type stage_gates = {
  sg_bounds : Interval.t array;
      (** per node: enclosure of P{node lies on a critical path of its
          stage}; [\[0, 0\]] for primary inputs and for gates that
          reach no primary output *)
  sg_reaches : bool array;  (** node reaches a primary output *)
  sg_escape : float;
      (** escape budget of the stage's chord-max delay form — the
          clamp applied to statically inactive gates *)
  sg_static : Static_criticality.t;
      (** the stage's corner proof ({!Static_criticality.analyse} at the
          pass's [k]) that decides which gates are inactive *)
}

type cone = {
  cn_stage : int;
  cn_stem : int;  (** reconvergent stem node id *)
  cn_gates : int array;  (** member gate ids, ascending *)
  cn_gate_crit : Interval.t;
      (** P{some member gate is critical for the stage}: at least the
          best single member's lower bound, at most the member sum *)
  cn_crit : Interval.t;
      (** P{the cone contains a pipeline-critical gate}: Fréchet
          combination of the stage and member bounds *)
  cn_shift : float array;
      (** unit shift direction in the whitened Cholesky (Factor)
          basis, one coefficient per stage *)
  cn_depth : float option;  (** the stage's {!stage_crit.sc_depth} *)
}

type t = {
  co_k : float;
  co_threshold : float;
  co_t_target : float option;
  co_stages : stage_crit array;
  co_gates : stage_gates array option;  (** gate-level contexts only *)
  co_slack : Affine.t option;  (** [T_target - D] form, with a target *)
  co_cones : cone list;  (** ranked, most critical first *)
}

val analyse : ?k:float -> ?threshold:float -> ?t_target:float ->
  Spv_engine.Engine.Ctx.t -> t
(** Run the pass.  [k] (default 6.0) is the box/concentration
    parameter shared with {!Affine_sta}; [threshold] (default
    0.05) the criticality lower bound above which a stage/cone counts
    as dominant; [t_target] enables the
    slack form and tail depths.  Stage-level results are always
    computed; per-gate bounds and cones only for gate-level contexts.
    Raises [Invalid_argument] on invalid [k], a [threshold] outside
    [\[0, 1\]], or a non-finite [t_target]. *)

val dominant_cones : t -> cone list
(** The ranked cones whose criticality lower bound clears the
    threshold. *)

val gate_bounds : t -> stage:int -> Interval.t array option
(** Fresh copy of one stage's per-node criticality enclosures ([None]
    for moments-only contexts). *)

val slack_attribution : t -> (string * float) list
(** Per-symbol-class sigma contributions of the slack form (empty
    without a target). *)

val proposal :
  ?k:float -> ?threshold:float -> Spv_engine.Engine.Ctx.t ->
  t_target:float -> (float array array * float array) option
(** The engine-facing proposal builder (stage-level only — no netlist
    traversal, it sits on the sampling hot path).  [None] when no
    stage's criticality lower bound clears [threshold]: the engine
    keeps its legacy mixture.  Otherwise one whitened mixture mode per
    stage that can cross the barrier, shifted to its {e uncapped}
    design point (the legacy mixture caps crossing depth at 6 marginal
    sigmas, stranding deep-tail proposals short of the barrier), with
    unnormalised weights criticality x marginal exceedance.  A barrier
    at or below every stage mean returns one zero shift, which the
    engine's body detection turns into the explicit plain-MC
    fallback.  The criticality bounds are the ones {!analyse}
    reports, bit for bit, computed from the stage MVN read in place:
    the call allocates what it returns plus a few arrays of one entry
    per stage, nothing per stage pair.  Raises [Invalid_argument] on
    invalid [k], a non-finite [t_target] or a non-finite stage mean or
    sigma. *)

val install_engine_proposal : unit -> unit
(** Register {!proposal} (with default [k] and [threshold]) as the
    provider of the engine's importance proposal via
    [Spv_engine.Engine.register_proposal_provider]. *)

val findings : t -> Report.finding list
(** Pass ["cones"]: a pipeline summary, the statistical-slack form
    with attribution (warns on negative nominal slack), per-stage
    criticality bounds, and the top dominant cones (warnings, located
    at their stems). *)
