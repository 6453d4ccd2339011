(** Unified statistical-timing engine.

    One entry point for every delay/yield question the library
    answers.  Three pieces:

    - {!Ctx}: an immutable evaluation context built once per
      pipeline/netlist array, caching what every estimator would
      otherwise re-derive per call — the Clark delay distribution, the
      stage-delay MVN factorisation, the independence flag and (for
      gate-level contexts) the nominal STA results, critical paths,
      gate-size snapshots and linearised delay-factor sensitivities;
    - a first-class estimator taxonomy ({!method_}): every method
      returns the same {!estimate} record (value, standard error,
      sample count, method tag, stop reason);
    - deterministic domain-parallel Monte-Carlo: trials are drawn on a
      fixed number of {e shards}, each with its own RNG stream split
      from one seed ({!Spv_stats.Rng.split}), and per-shard partial
      results are merged in fixed shard order (integer success counts
      exactly; means/variances by Welford accumulation per shard and
      Chan's parallel merge).  Shards are scheduled over [jobs]
      domains by {!Par.run}, and because shard state never depends on
      the schedule, results are bit-for-bit identical for any [jobs]
      given the same [(seed, shards)].

    All sampling loops in the library live here, on one shard driver;
    the lower layers provide only the single-trial kernels it calls
    ({!Spv_stats.Mvn.sample_max}, {!Spv_circuit.Ssta.sampler},
    {!Spv_core.Adaptive.sampler}, {!Spv_stats.Importance.draw_weight}). *)

(** {1 Evaluation modes} *)

type mode =
  | Flat  (** per-stage critical-path SSTA over the whole netlist *)
  | Hierarchical
      (** per-stage composition of pre-characterised block macros
          ({!Spv_circuit.Macro}): each stage is partitioned into level
          bands, each band reduced once to a canonical first-order
          macro, and the stage delay is the series composition of the
          band macros.  Macros are memoised in a {!Spv_circuit.Macro.Table}
          keyed on (block structure+sizes hash, process fingerprint), so
          repeated analyses — process sweeps, sizing probes — only pay
          for blocks that actually changed.  Every estimate on a
          hierarchical context carries the closed-form gap to the flat
          reference model as {!estimate.hier_bound}. *)

val mode_name : mode -> string
(** ["flat"] / ["hierarchical"]. *)

(** {1 Evaluation contexts} *)

module Ctx : sig
  type t
  (** Immutable evaluation context.  Safe to share across domains. *)

  val of_pipeline : Spv_core.Pipeline.t -> t
  (** Context for a moment-level pipeline (stage Gaussians +
      correlation).  Gate-level estimators are unavailable on such a
      context and raise [Invalid_argument]. *)

  val of_circuits :
    ?mode:mode -> ?macro_table:Spv_circuit.Macro.Table.t ->
    ?block_gates:int -> ?output_load:float -> ?pitch:float ->
    ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
    Spv_circuit.Netlist.t array -> t
  (** Gate-level context: runs analytic SSTA once per netlist (stages
      laid out in a row at [pitch], default 1.0, die units) and caches
      the nominal STA results alongside the derived pipeline.
      Equivalent pipeline to {!Spv_core.Pipeline.of_circuits}.  Raises
      [Invalid_argument] on an empty netlist array.

      [mode] (default {!Flat}) selects the stage-delay model.  Under
      {!Hierarchical} each stage is decomposed into blocks of roughly
      [block_gates] gates (default
      {!Spv_circuit.Macro.default_block_gates}) whose macros are
      characterised through [macro_table] (a fresh table when absent —
      pass a shared one to reuse characterisations across contexts,
      e.g. over a sweep).  The flat per-stage analyses are still
      computed (memoised in the same table) as the reference model that
      prices {!estimate.hier_bound}; nominal-STA accessors and
      gate-level Monte-Carlo always use the flat netlists, so only the
      moment-level model (pipeline, Clark distribution, MVN) differs
      between modes. *)

  val pipeline : t -> Spv_core.Pipeline.t
  val n_stages : t -> int

  val delay_distribution : t -> Spv_stats.Gaussian.t
  (** Cached Clark-iterated max over the stages (the paper's
      (mu_T, sigma_T)). *)

  val mvn : t -> Spv_stats.Mvn.t
  (** Cached joint stage-delay sampler (Cholesky factorisation done at
      context build). *)

  val nearly_independent : t -> bool
  (** Cached: true when every off-diagonal stage correlation is (near)
      zero, i.e. eq. 8 is exact. *)

  val gate_level : t -> bool
  (** True when the context was built by {!of_circuits}. *)

  val mode : t -> mode
  (** The evaluation mode the context was built under.  Moments-only
      contexts report {!Flat}. *)

  val macro_table : t -> Spv_circuit.Macro.Table.t option
  (** The macro table a hierarchical context characterises through
      (shared, live — its hit/miss counters keep advancing as the
      context is refreshed).  [None] for flat contexts. *)

  val flat_reference : t -> Spv_core.Pipeline.t option
  (** The flat reference pipeline a hierarchical context prices its
      error bound against — built from exactly the per-stage analyses a
      {!Flat} context of the same inputs would hold.  [None] for flat
      contexts. *)

  val n_blocks : t -> int -> int
  (** Number of macro blocks stage [i] decomposes into (1 for a flat
      context: the whole stage).  Gate-level contexts only. *)

  val stage_macros : t -> int -> Spv_circuit.Macro.t array
  (** The characterised block macros of one stage, in composition
      (level-band) order.  Hierarchical gate-level contexts only;
      raises [Invalid_argument] on a flat context. *)

  val nominal_sta : t -> int -> Spv_circuit.Sta.result
  (** Cached nominal STA of one stage.  Gate-level contexts only. *)

  val critical_path : t -> int -> int list
  (** Cached nominal critical path of one stage (input to output).
      Gate-level contexts only. *)

  val gate_sizes : t -> int -> float array
  (** Snapshot of one stage's gate sizes at context build (fresh
      array).  Gate-level contexts only. *)

  val stage_revision : t -> int -> int
  (** Monotone per-stage refresh counter: 0 at context build, bumped by
      one each time {!refresh_stage} (or {!refresh_block}, which
      delegates to it) re-analyses the stage.  Derived caches — the
      sizing layer's sensitivity enclosures — key on
      [(stage, revision)] so a refresh invalidates exactly the stale
      entries.  Gate-level contexts only. *)

  val delay_sensitivities : t -> float * float
  (** Cached linearised delay-factor coefficients [(s_vth, s_leff)] of
      the technology: the sensitivities in
      [delay_factor = 1 + s_vth dVth + s_leff dLeff/Leff].  Gate-level
      contexts only. *)

  val tech : t -> Spv_process.Tech.t
  (** The technology the context was built with.  Gate-level only. *)

  val netlist : t -> int -> Spv_circuit.Netlist.t
  (** One stage's netlist (shared, not copied — treat as read-only).
      Gate-level contexts only; raises [Invalid_argument] out of
      range. *)

  val output_load : t -> float
  (** Primary-output load the context's STA uses.  Gate-level only. *)

  val pitch : t -> float
  (** Stage-to-stage die pitch of the context's layout.  Gate-level
      only. *)

  val flipflop : t -> Spv_process.Flipflop.t option
  (** The flip-flop whose overhead each stage pays, if any.  Gate-level
      only. *)

  val with_prune : t -> bool array array -> t
  (** [with_prune ctx masks] returns a context whose gate-level
      Monte-Carlo samplers skip gates masked [false] (one mask entry
      per node per stage).  Masks come from the static-criticality pass
      in [Spv_analysis]: when every dropped gate provably never sets
      its stage delay, gate-level estimates are unchanged bit-for-bit
      (masked trials consume the identical RNG stream and only skip
      arithmetic).  Analytic/MVN estimators are unaffected.  Raises
      [Invalid_argument] on mask shape mismatch, a stage whose every
      primary output is masked, or a moments-only context. *)

  val without_prune : t -> t
  (** Drop any installed prune masks. *)

  val prune_masks : t -> bool array array option
  (** The installed prune masks (fresh copy), if any.  [None] for
      moments-only contexts and unpruned gate-level contexts. *)

  val stage_delay_model : t -> int -> Spv_process.Gate_delay.t
  (** The decomposed delay model of one stage. *)

  val stat_delay : t -> stage:int -> z:float -> float
  (** [mu + z sigma] of one stage's delay — the sizing layer's
      statistical-delay objective. *)

  val refresh_stage : t -> int -> t
  (** [refresh_stage ctx i] re-runs SSTA on stage [i]'s netlist
      (picking up mutated gate sizes) and rebuilds the derived caches;
      the other stages' analyses are reused.  This is what makes the
      sizer's inner loop cheap: one stage re-analysed per probe
      instead of the whole pipeline.  On a hierarchical context the
      stage is re-probed through the macro table, so blocks the resize
      did not touch are cache hits and only changed blocks are
      re-characterised.  Exactly stage [i]'s prune mask is dropped
      (replaced by an all-true mask); the other stages' masks — still
      sound, their netlists unchanged — are kept.  Gate-level contexts
      only; raises [Invalid_argument] out of range. *)

  val fingerprint : t -> string
  (** Canonical fingerprint of everything the estimators read from the
      context.  Gate-level contexts encode the characterisation
      fingerprint ({!Spv_circuit.Macro.Table.fingerprint}: technology
      parameters, boundary load, flip-flop overhead), the layout pitch
      and the per-stage structure+sizes hashes
      ({!Spv_circuit.Macro.hash}); moments-level contexts encode the
      per-stage delay decompositions, die positions and the full
      correlation matrix as exact ([%.17g]) float bits.  The evaluation
      mode prefixes both.  Two contexts with equal fingerprints answer
      every estimator query identically, so a long-running service
      (the [Spv_workload.Serve] daemon) can key its context cache on
      the inputs alone and prove cache hits sound by comparing
      fingerprints.
      Recomputed per call (the sizes part must track mutation); cheap
      integer/hash work, no re-analysis. *)

  val refresh_block : t -> stage:int -> block:int -> t
  (** [refresh_block ctx ~stage ~block] is {!refresh_stage} with the
      caller's assertion that the resize was confined to one macro
      block; the other blocks of the stage are verified unchanged by
      re-hashing (cheap integer work) and [Invalid_argument] is raised
      if any of them — or the band structure itself — changed.  On the
      macro-table side the unchanged blocks then hit the cache, so the
      refresh re-characterises exactly one block.  On a flat context
      the whole stage is one block: [block] must be [0] and the call
      degenerates to [refresh_stage ctx stage]. *)
end

(** {1 Estimator taxonomy} *)

type method_ =
  | Analytic_clark  (** eq. 9: Clark Gaussian CDF (closed form) *)
  | Exact_independent  (** eq. 8: per-stage CDF product (closed form) *)
  | Mc  (** fixed-[n] Monte-Carlo on the stage-delay MVN *)
  | Adaptive_mc  (** Monte-Carlo with relative-standard-error early stop *)
  | Importance  (** mean-shifted mixture importance sampling (tails) *)
  | Quadrature
      (** 1-D Gauss–Legendre over the inter-die variable of conditional
          Clark yields (the ABB machinery with zero bias range);
          degenerates to [Analytic_clark] for moment-built pipelines *)

type stop_reason =
  | Closed_form  (** no sampling involved *)
  | Converged  (** relative standard error reached its target *)
  | Sample_cap  (** sample budget exhausted before convergence *)
  | Fixed_n  (** caller asked for exactly [n] samples *)

type proposal =
  | Legacy
      (** the built-in per-stage mean-shift mixture (PR 2 behaviour):
          one mode per stage that can cross the barrier, crossing depth
          capped at 6 marginal sigmas *)
  | Cone_guided
      (** analyzer-derived failure-cone proposal: shifts along the
          dominant cones' design points (uncapped depth), mixture
          weights from the static criticality bounds.  Requires the
          provider installed by [Spv_analysis.Cones.install_engine_proposal];
          falls back to [Legacy] when absent or when no cone
          dominates. *)

(** What the importance estimator actually sampled with (reported in
    {!estimate.proposal}; the request may degrade, never silently). *)
type proposal_used =
  | Prop_legacy  (** legacy per-stage mean-shift mixture *)
  | Prop_cone of int  (** cone-guided mixture with [n] modes *)
  | Prop_plain
      (** body target — every candidate shift norm below
          [Spv_stats.Importance.body_shift_threshold] — so the
          estimator ran {e plain} Monte-Carlo and says so instead of
          reporting importance-grade output that is not
          (DESIGN §8's importance-at-body contract) *)

type estimate = {
  value : float;
  std_error : float;  (** 0 for closed forms *)
  n_samples : int;  (** 0 for closed forms *)
  method_ : method_;
  stop : stop_reason;
  hier_bound : float option;
      (** Hierarchical contexts only ([None] on flat): the absolute gap
          between the flat reference model and the macro-composed model
          the estimator evaluated, measured in the estimator's own
          closed-form family (Clark CDF/SF for [Analytic_clark] and the
          sampling methods, the independent product for
          [Exact_independent], quadrature for [Quadrature], Clark mu
          for {!delay_mean}).  For closed forms the reported value
          differs from its flat counterpart by exactly this gap;
          sampling estimators add their own noise, which callers cover
          with the usual [z *. std_error] allowance. *)
  ess : float option;
      (** [Importance] only ([None] elsewhere): effective sample size
          of the self-normalised importance weights,
          [(sum w)^2 / sum w^2] over all [n] draws (for the
          [Prop_plain] fallback: the failing-trial count, which is the
          same formula on 0/1 weights).  Tiny values mean the proposal
          is poorly placed. *)
  proposal : proposal_used option;
      (** [Importance] only: the proposal actually sampled with. *)
}

val method_name : method_ -> string
val method_of_string : string -> method_ option
val all_methods : method_ list
val stop_reason_name : stop_reason -> string

val proposal_name : proposal -> string
(** ["legacy"] / ["cone"]. *)

val proposal_of_string : string -> proposal option

val proposal_used_name : proposal_used -> string
(** ["legacy"] / ["cone"] / ["plain-fallback"]. *)

val pp_estimate : Format.formatter -> estimate -> unit

val recommended : Ctx.t -> method_
(** The paper's recommended closed form for this context:
    [Exact_independent] when the stages are (near) independent,
    [Analytic_clark] otherwise. *)

(** {1 Debug-mode postconditions}

    [Spv_analysis.Bounds.install_engine_check] registers an
    interval-bound oracle here (a function pointer, so the engine does
    not depend on the analysis layer).  When debug checks are enabled —
    [set_debug_checks true], or the [SPV_DEBUG_BOUNDS] environment
    variable set to anything but [""]/["0"] at startup — every
    {!yield} ([t_target] passed as [Some]) and {!delay_mean}
    ([t_target = None]) result is handed to the registered check and a
    violated bound raises [Failure] with the oracle's message. *)

type check = Ctx.t -> t_target:float option -> estimate -> (unit, string) result

val register_estimate_check : check -> unit
(** Install the postcondition oracle, replacing every previously
    registered or added one. *)

val add_estimate_check : check -> unit
(** Append a further oracle; all registered checks run in order and
    the first violation raises.  [Spv_analysis.Affine_sta] uses this
    to stack the affine-envelope check on top of the interval one. *)

type proposal_provider =
  Ctx.t -> t_target:float -> (float array array * float array) option
(** Maps a context and target to an importance-sampling proposal:
    whitened mixture shifts in the stage-MVN's Cholesky basis (each of
    dimension [Mvn.dim]) plus unnormalised positive mixture weights.
    [None] means no failure cone dominates — the estimator then uses
    its legacy mixture. *)

val register_proposal_provider : proposal_provider -> unit
(** Install the [Cone_guided] proposal builder (replacing any previous
    one) — the same function-pointer pattern as the estimate checks,
    used by [Spv_analysis.Cones.install_engine_proposal] so the engine
    does not depend on the analysis layer. *)

val proposal_provider_installed : unit -> bool

val set_debug_checks : bool -> unit
(** Enable/disable running the registered oracle. *)

val debug_checks_enabled : unit -> bool

(** {1 Estimators}

    Common optional arguments: [jobs] (worker domains; default
    {!Par.default_jobs}) only affects wall-clock time, never results;
    [shards] (independent RNG substreams; default 8) and [seed]
    (default 42) fully determine every random draw.  [Invalid_argument]
    is raised on non-positive [jobs]/[shards]/[n], non-finite
    [t_target], or a gate-level estimator applied to a moments-only
    context. *)

val default_shards : int
(** 8 — the default RNG substream count. *)

val default_seed : int
(** 42 — the default master seed. *)

val yield :
  ?method_:method_ -> ?proposal:proposal -> ?jobs:int -> ?shards:int ->
  ?seed:int -> ?n:int -> ?batch:int -> ?min_samples:int ->
  ?rel_se_target:float -> ?max_samples:int -> Ctx.t -> t_target:float ->
  estimate
(** [P{pipeline delay <= t_target}] by the chosen method (default
    [Adaptive_mc]).  [n] (default 10_000) applies to [Mc] and
    [Importance]; [batch] (round size, default 1024),
    [min_samples] (1000), [rel_se_target] (0.01) and [max_samples]
    (1_000_000) apply to [Adaptive_mc].  [proposal] (default
    [Legacy]) selects the [Importance] mixture construction; ignored
    by every other method.  Proposals are resolved once before
    sampling starts, so [jobs] still never changes results. *)

val yield_targets :
  ?method_:method_ -> ?proposal:proposal -> ?jobs:int -> ?shards:int ->
  ?seed:int -> ?n:int -> ?batch:int -> ?min_samples:int ->
  ?rel_se_target:float -> ?max_samples:int -> Ctx.t ->
  t_targets:float array -> estimate array
(** {!yield} over a whole [t_target] sweep, one estimate per target
    (same defaults).  For [Mc] with more than one target the sampling
    pass is shared: each trial draws one pipeline delay and updates
    every target's counter, so a sweep costs one Monte-Carlo run yet
    each returned estimate is bit-identical to the single-target
    {!yield} at the same [(seed, shards, n)].  Other methods evaluate
    per target (closed forms are cheap; adaptive runs stop on
    per-target criteria and cannot share draws without changing their
    results).  Raises [Invalid_argument] on an empty target array. *)

val yield_loss :
  ?method_:method_ -> ?proposal:proposal -> ?jobs:int -> ?shards:int ->
  ?seed:int -> ?n:int -> ?batch:int -> ?min_samples:int ->
  ?rel_se_target:float -> ?max_samples:int -> Ctx.t -> t_target:float ->
  estimate
(** [P{pipeline delay > t_target}], reported with full relative
    precision deep in the tail where [1. -. (yield ...).value] cancels
    to 0 (closed forms route through {!Spv_stats.Gaussian.sf} /
    [Yield.independent_exact_loss]; [Importance] reports its estimated
    failure probability directly; [Mc]/[Adaptive_mc] count failing
    trials, so their loss is the integer-exact complement of the
    corresponding yield estimate).  Same parameters and defaults as
    {!yield}.  Debug-mode bounds oracles are not applied (they check
    yield, not loss, semantics). *)

val delay_mean :
  ?method_:method_ -> ?jobs:int -> ?shards:int -> ?seed:int -> ?n:int ->
  ?batch:int -> ?min_samples:int -> ?rel_se_target:float ->
  ?max_samples:int -> Ctx.t -> estimate
(** Mean pipeline delay.  Methods: [Analytic_clark] (Clark mu, closed
    form), [Mc] (fixed [n]) or [Adaptive_mc] (default); other methods
    raise [Invalid_argument]. *)

val sample_delays :
  ?jobs:int -> ?shards:int -> ?seed:int -> Ctx.t -> n:int -> float array
(** [n] pipeline-delay draws from the stage-delay MVN (for histograms
    and moment checks).  Sample order is deterministic given
    [(seed, shards)] and independent of [jobs]. *)

val gate_level_delays :
  ?exact:bool -> ?jobs:int -> ?shards:int -> ?seed:int -> Ctx.t -> n:int ->
  float array
(** [n] gate-level Monte-Carlo pipeline delays: per trial, sample a
    variation world, re-run STA with per-gate delay factors
    ([exact] uses the alpha-power law directly instead of its
    linearisation), take the max stage delay.  Gate-level contexts
    only. *)

val gate_level_stage_samples :
  ?exact:bool -> ?jobs:int -> ?shards:int -> ?seed:int -> Ctx.t -> n:int ->
  float array array
(** Same sampling scheme, returning the per-stage delay matrix
    [stage][trial] (used to measure empirical stage correlations).
    Gate-level contexts only. *)

val abb_mc_yield :
  ?policy:Spv_core.Adaptive.policy -> ?jobs:int -> ?shards:int -> ?seed:int ->
  Ctx.t -> n:int -> t_target:float -> estimate
(** Monte-Carlo verification of the adaptive-body-bias yield (method
    tag [Mc]): per trial, sample the die's inter-die corner, apply the
    clamped cancellation policy, sample residual stage delays. *)
