(** Affine-form propagation through netlists and across pipe stages —
    the correlation-aware refinement of {!Bounds}.

    Where {!Bounds} pushes intervals, this pass pushes {!Affine} forms
    over one shared symbol set per context: the two inter-die draws,
    the Cholesky basis of the spatial systematic field (one [Sys j]
    per stage position) and one fresh [Rand] symbol per device — at
    the model level, the Cholesky basis of the stage-delay MVN
    ([Factor j]).  These bases mirror bit-for-bit how the engine's
    samplers draw their worlds, so the forms are exact affine models
    of the sampled quantities up to the relu-chord error of [max]
    (Chebyshev remainder; see {!Affine.max2}).  The gate-level forms
    model the {e linearised}-factor sampler
    ([Engine.gate_level_delays ~exact:false], the same first-order
    model the analytic SSTA moments use); the exact alpha-power
    sampler is covered through the intersection with {!Bounds}, whose
    corner factors hull both models (see {!stage_factor_form} for the
    standalone exact-remainder variant).

    Every shipped enclosure is intersected with its {!Bounds}
    counterpart, so nesting inside the interval results holds by
    construction; the probabilistic content (the escape mass of the
    [+-k sigma] concentration step) is quantified in {!t.escape}.
    Width ratios vs. the interval domain are reported per stage and
    for the pipeline. *)

type stage = {
  model_form : Affine.t;  (** exact affine form of the stage-delay MVN *)
  sta_form : Affine.t option;
      (** gate-level arrival form: netlist levelisation with per-gate
          affine delay factors plus the flip-flop overhead *)
  model_conc : Interval.t;  (** concentration enclosure of [model_form] *)
  sta_conc : Interval.t option;
  enclosure : Interval.t;
      (** hull of the concentrations, intersected with the interval
          stage bound — the shipped stage enclosure *)
  width_ratio : float;
      (** width(enclosure) / width(interval bound); <= 1 by
          construction (1.0 when both are degenerate) *)
}

type t = {
  k : float;
  bounds : Bounds.t;  (** the interval baseline everything nests in *)
  stages : stage array;
  pipe_model : Affine.t;  (** affine form of [max_i SD_i], model level *)
  pipe_sta : Affine.t option;  (** same over the gate-level stage forms *)
  delay : Interval.t;  (** pipeline delay enclosure, inside [bounds.delay] *)
  delay_ratio : float;
  mean : Interval.t;  (** mean-delay envelope, inside [bounds.mean] *)
  escape : float;
      (** total escape-probability budget of the probabilistic
          enclosures (union bound over symbols + the Gaussian band) *)
}

val of_ctx : ?k:float -> Spv_engine.Engine.Ctx.t -> t
(** Build every form and enclosure for a context.  [k] defaults to
    6.0; raises [Invalid_argument] when not finite positive. *)

val stage_factor_form :
  ?exact_rem:bool -> k:float -> Spv_process.Tech.t -> sys_row:float array ->
  stage:int -> node:int -> size:float -> Affine.t
(** Affine delay factor of one device: linear sensitivities over the
    shared symbols.  By default ([exact_rem = false]) the remainder is
    exactly 0 — the form {e is} the linearised-factor model.  With
    [~exact_rem:true] the remainder bounds the exact alpha-power
    model's linearisation gap over the [+-k] box (computed at the box
    corners in [(u, l)] space, where the gap is linear in [l] and
    convex in [u]; degenerate — infinite — when the box reaches device
    cutoff), making the form a standalone enclosure of the exact
    sampler.  [sys_row] is the stage's row of the spatial-correlation
    Cholesky factor.  Exposed for tests. *)

val stage_forms :
  k:float -> Spv_engine.Engine.Ctx.t -> sys_row:float array -> stage:int ->
  Affine.t array * Affine.t array
(** Per-node gate forms (factor form x nominal delay, 0 at inputs) and
    arrival forms of one stage: {!Spv_circuit.Sta.forward} with
    {!Affine.max2} folded from [Affine.const 0.0]. *)

val model_form : Spv_stats.Mvn.t -> int -> Affine.t
(** Exact affine form of one stage's delay in the MVN's Cholesky
    ([Factor]) basis: center = marginal mean, coefficients = the
    stage's Cholesky row, remainder 0.  This is {e the} model the
    engine's samplers draw from, so probabilities computed from these
    forms are exact Gaussian statements about the sampled worlds. *)

val spatial_rows : Spv_engine.Engine.Ctx.t -> float array array
(** Rows of the Cholesky factor of the stage-position spatial
    correlation — the [Sys] basis of the gate-level forms, matching
    the sampler's field bit-for-bit.  Gate-level contexts only. *)

val yield_bounds : t -> t_target:float -> Interval.t
(** Yield envelope from the pipeline forms' {!Affine.cdf_bounds},
    hulled over the model/gate-level variants and intersected with the
    Fréchet bounds — never wider than {!Bounds.yield_bounds}. *)

val check :
  ?slack:float -> ?t_target:float -> t -> Spv_engine.Engine.estimate ->
  Bounds.verdict
(** Assert one engine estimate against the affine envelopes, with the
    same default slack policy as {!Bounds.check}.  The independent
    product closed form is delegated to {!Bounds.check}: under
    correlation it estimates a different functional than the true
    yield and only its Fréchet membership is guaranteed. *)

val findings : ?t_target:float -> t -> Report.finding list
(** Pass ["affine"]: per-stage and pipeline enclosures with width
    ratios, the yield envelope (when [t_target] is given), and
    per-symbol-class sensitivity attributions of the pipeline forms.
    Non-finite enclosures (device cutoff inside the box) are [Error]
    findings. *)

val install_engine_check : unit -> unit
(** Install {!check} as an engine debug-mode postcondition under the
    name ["affine"] via [Spv_engine.Engine.set_estimate_check] — runs
    alongside the interval oracle installed by
    {!Bounds.install_engine_check}, in whichever order the two were
    first installed.  Idempotent. *)
