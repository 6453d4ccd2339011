(** Importance sampling for rare-event probabilities of multivariate
    normals.

    Plain Monte-Carlo needs ~100/p samples to see a probability p; a
    4-sigma yield-loss tail (p ~ 3e-5) is out of reach.  Mean-shifted
    importance sampling moves the sampling distribution into the
    failure region and reweights:

    the sampler is a {e mixture} of mean shifts, one per component
    (each failure mode "component i crosses the barrier" gets a shift
    towards its most-likely failure point, weighted by its marginal
    exceedance probability), and every draw is reweighted by the exact
    density ratio [phi(z) / sum_j alpha_j phi(z - theta_j)].  Unbiased
    for any shift set; the mixture keeps the weight variance bounded
    when several stages can fail. *)

type plan
(** Immutable single-trial sampler: the mixture of mean shifts and
    their weights, built once per (mvn, threshold).  Safe to share
    across domains; pair it with one {!sampler} and one {!Rng.t} per
    domain. *)

val plan :
  ?z_shifts:float array array -> ?z_alphas:float array -> Mvn.t ->
  threshold:float -> plan
(** Build the mixture plan.  [z_shifts] (one whitened shift per
    mixture component) defaults to the automatic per-stage
    construction described above; [z_alphas] (unnormalised positive
    mixture weights, one per explicit shift) defaults to equal
    weights.  Raises [Invalid_argument] on an empty or
    dimension-mismatched shift set, a length-mismatched or
    non-positive alpha set, or [z_alphas] without [z_shifts]. *)

val body_shift_threshold : float
(** 0.5 — the documented whitened-shift norm below which a mean-shift
    proposal is statistically indistinguishable from plain sampling.
    Estimators should treat a plan whose {!max_shift_norm} is below
    this as a {e body} target and fall back to plain Monte-Carlo with
    an explicit marker (DESIGN §8). *)

val max_shift_norm : plan -> float
(** Largest L2 norm over the plan's whitened mixture shifts (0 for the
    degenerate every-component-past-the-barrier plan). *)

type sampler
(** One shard's draw state: a shared {!plan} plus its own [z] and [x]
    scratch, so a trial allocates nothing beyond its boxed result. *)

val sampler : plan -> sampler

val draw_weight : sampler -> Rng.t -> float
(** One importance-sampling trial: the reweighted failure indicator
    (0 when the draw does not fail).  The mean of these values over
    many trials estimates P{max_i X_i > threshold}. *)
