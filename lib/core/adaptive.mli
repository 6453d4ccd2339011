(** Adaptive body bias (ABB): post-silicon, per-die yield recovery.

    A die can sense its own global process corner (the inter-die shift
    every stage shares) and apply a body bias that moves every gate's
    Vth, multiplying all delays by a bounded factor: forward bias
    rescues slow dies, reverse bias cools fast ones (Tschanz et al.'s
    classic result).  Within this library's model the policy

    [c(I) = clamp(1 - r_I * I, 1 - range, 1 + range)]

    cancels the shared inter-die delay shift up to the bias range
    ([r_I] = the pipeline's average relative inter-die sigma, [I] the
    die's standard-normal inter-die variable).  The conditional
    pipeline delay given [I] is still a Gaussian max (systematic +
    random parts remain), so the ABB yield is a 1-D quadrature over
    [I] of Clark yields — exact within the model.

    Requires decomposed stages ({!Pipeline.of_stages} /
    {!Pipeline.of_circuits}); a pipeline built from bare moments has no
    inter-die component for ABB to sense, and the result degenerates to
    the ordinary yield. *)

type policy = {
  range : float;
      (** maximum relative delay correction, e.g. 0.1 = +-10% (0
          disables ABB) *)
}

val yield_with_abb : ?policy:policy -> Pipeline.t -> t_target:float -> float
(** Yield when every die applies the clamped cancellation policy.
    Default range 0.10. *)

val loss_with_abb : ?policy:policy -> Pipeline.t -> t_target:float -> float
(** Yield loss under the same policy, integrating the conditional
    survival function directly (via {!Spv_stats.Gaussian.sf}) so a
    deep-tail loss is not lost to [1. -. yield] cancellation.  With
    [range = 0.0] this is the plain quadrature yield loss. *)

val yield_gain : ?policy:policy -> Pipeline.t -> t_target:float -> float
(** [yield_with_abb - clark_gaussian yield]; >= 0 up to quadrature
    noise whenever an inter-die component exists. *)

type plan
(** The biased pipeline delay's immutable trial plan: the decomposition
    and the residual MVN factorisation, built once per (policy,
    pipeline).  Safe to share across domains. *)

val plan : ?policy:policy -> Pipeline.t -> plan
(** Build the plan.  Default range 0.10; raises [Invalid_argument] on
    a negative or non-finite range. *)

type sampler
(** One shard's draw state: a shared {!plan} plus the scratch a trial
    draws into.  Use one sampler and one {!Spv_stats.Rng.t} per
    domain. *)

val sampler : plan -> sampler

val sample_delay : sampler -> Spv_stats.Rng.t -> float
(** One Monte-Carlo trial of the ABB-corrected pipeline delay (samples
    I, applies the correction, samples the residual stage delays). *)

val leakage_overhead :
  ?policy:policy -> Spv_process.Tech.t -> Pipeline.t -> float
(** Expected die leakage multiplier induced by the bias policy
    (forward bias on slow dies burns leakage, reverse bias on fast dies
    recovers it): [E_I exp(-dVth(I) / (n vT))] with
    [dVth = (c - 1) / S_vth].  1.0 when ABB is disabled. *)
