(** Interval abstract domain over pipeline/netlist delays, and the
    machine-checkable oracle it yields for every [Spv_engine] estimate.

    Concretisation: fix [k] (default 6) and restrict every variation
    component to its [±k sigma] box — inter-die and systematic Vth/Leff
    shifts, the unit-variance spatial field, and each device's random
    component (sigma scaled by [1/sqrt size]).  Within that box:

    - each gate's delay factor is bounded by evaluating both the
      linearised and the exact alpha-power factor at the two extreme
      corners (the factor is monotone in each shift component, so
      corners are exact extrema — the hull of the two model variants
      covers whichever the sampler uses);
    - stage delay bounds follow from two corner STA runs (arrival
      times are monotone in the per-gate factors) plus the flip-flop
      overhead interval, hulled with the [±k sigma] span of the
      analytic stage-delay model so both the gate-level sampler and
      the moment-level MVN marginals are covered;
    - the pipeline delay bound is the interval max over stages.

    Two families of checks come out:

    - {b sample bounds} — any stage/pipeline delay drawn inside the box
      lies inside its interval (violations outside the box have
      probability [<= 2 Phi(-k)] per component draw, ~2e-9 at k = 6);
    - {b estimate bounds} — exact probabilistic envelopes that hold for
      {e any} dependence structure over the model marginals: Fréchet
      bounds on the yield [P(max <= t)] and the
      Jensen / Gaussian-union-bound envelope on the mean delay.
      {!check} asserts an [Engine] estimate against these (with an
      explicit tolerance for Clark's approximation error and sampling
      noise). *)

type stage_bound = {
  model : Interval.t;  (** +-k sigma span of the analytic stage model *)
  sta : Interval.t option;  (** corner-STA bound (gate-level contexts) *)
  total : Interval.t;  (** hull of the two *)
}

type t = {
  k : float;
  stages : stage_bound array;
  delay : Interval.t;  (** bound on the pipeline delay max_i SD_i *)
  mean : Interval.t;  (** envelope on E\[pipeline delay\] *)
  marginals : Spv_stats.Gaussian.t array;  (** model stage marginals *)
}

val of_ctx : ?k:float -> Spv_engine.Engine.Ctx.t -> t
(** Derive all bounds for a context.  [k] (default 6.0) must be finite
    and positive; raises [Invalid_argument] otherwise. *)

val corner_factors :
  k:float -> Spv_process.Tech.t -> Spv_circuit.Netlist.t ->
  float array * float array
(** Per-node [(lo, hi)] delay-factor corner arrays for one netlist
    (1.0 at input nodes) — the inputs to the two corner STA runs.
    Shared with the criticality pass. *)

val yield_bounds : t -> t_target:float -> Interval.t
(** Exact Fréchet bounds on [P(max_i SD_i <= t)] from the model
    marginals: [\[max 0 (1 - sum_i (1 - Phi_i)), min_i Phi_i\]].
    Valid for every dependence structure, hence for every estimator. *)

(** {1 Estimate checking} *)

type verdict =
  | Pass of { bound : Interval.t; slack : float }
  | Fail of { bound : Interval.t; slack : float; value : float; excess : float }

val verdict_ok : verdict -> bool

val check :
  ?slack:float -> ?t_target:float -> t -> Spv_engine.Engine.estimate ->
  verdict
(** Assert one engine estimate against its bound.  With [t_target] the
    estimate is a yield and is checked against {!yield_bounds};
    without, it is a delay mean checked against the mean envelope.
    [slack] overrides the default tolerance: [6 x std_error] plus an
    analytic-approximation allowance (0.02 absolute for Clark-family
    yield closed forms, [0.01 x max sigma] for means; the independent
    product form is exact and gets essentially zero). *)

val findings : t -> Report.finding list
(** Per-stage and pipeline bound findings ([pass = "bounds"]); any
    non-finite interval (the variation box crossing the device cutoff,
    e.g. an absurd [k]) is reported at [Error] severity. *)

val install_engine_check : unit -> unit
(** Install {!check} as the engine's debug-mode postcondition under the
    name ["interval"] (see [Spv_engine.Engine.set_estimate_check]).
    Idempotent, and leaves checks installed under other names (e.g.
    {!Affine_sta.install_engine_check}'s) in place. *)
