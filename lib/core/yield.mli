(** Yield estimation (Section 2.3): the probability that the pipeline
    meets a target delay, [P_D = Pr{max_i SD_i <= T_target}]. *)

val independent_exact : Pipeline.t -> t_target:float -> float
(** Eq. 8: [prod_i Phi((T - mu_i) / sigma_i)].  Exact when the stage
    delays are independent; ignores the pipeline's correlation matrix. *)

val clark_gaussian : ?order:Clark.order -> Pipeline.t -> t_target:float -> float
(** Eq. 9: approximate the overall delay as Gaussian with the
    Clark-estimated (mu_T, sigma_T) and evaluate
    [Phi((T - mu_T) / sigma_T)].  Valid for correlated stages. *)

val nearly_independent : Pipeline.t -> bool
(** True when every off-diagonal stage correlation is (near) zero, in
    which case eq. 8 is exact. *)

val estimate : Pipeline.t -> t_target:float -> float
(** The paper's recommended estimator: [independent_exact] when all
    off-diagonal correlations are (near) zero, [clark_gaussian]
    otherwise. *)

val independent_exact_loss : Pipeline.t -> t_target:float -> float
(** Yield loss [1 - independent_exact], computed as
    [-expm1(sum_i log Phi_i)] with stable per-stage log-CDFs so the
    loss keeps full relative precision deep in the tail (where the
    naive complement of a yield that rounds to 1 reports 0). *)

val clark_gaussian_loss :
  ?order:Clark.order -> Pipeline.t -> t_target:float -> float
(** Yield loss [1 - clark_gaussian] through the stable survival
    function {!Spv_stats.Gaussian.sf} — nonzero out to ~38 sigma. *)

val loss : Pipeline.t -> t_target:float -> float
(** Stable complement of {!estimate}: [independent_exact_loss] when
    the stages are (near) independent, [clark_gaussian_loss]
    otherwise. *)

val target_delay_for_yield : ?order:Clark.order -> Pipeline.t -> yield:float -> float
(** Smallest T with [clark_gaussian >= yield]:
    [mu_T + sigma_T * Phi^-1(yield)].  Requires yield in (0,1). *)

val per_stage_yield_target : yield:float -> n_stages:int -> float
(** Eq. 12's per-stage budget under independence and equal stages:
    [yield ** (1 / n_stages)] — e.g. 0.80^(1/3) = 0.9283 in the
    paper's 3-stage example. *)

val stage_yields : Pipeline.t -> t_target:float -> float array
(** Per-stage standalone yields [Phi((T - mu_i)/sigma_i)]. *)

(** Monte-Carlo yield lives in [Spv_engine.Engine] (plain, adaptive
    and importance sampling: deterministic, domain-parallel, one common
    [estimate] record).  The one sampling estimator kept here is the
    Latin-hypercube variant, which the engine does not offer. *)

val monte_carlo_lhs :
  Pipeline.t -> Spv_stats.Rng.t -> n:int -> t_target:float -> float
(** Yield with Latin-hypercube-stratified stage draws
    ({!Spv_stats.Sampling.mvn_lhs}): same estimand as plain Monte-Carlo
    ([Engine.yield ~method_:Mc]) with markedly lower variance at equal
    [n]. *)

val wilson_interval : successes:int -> trials:int -> confidence:float ->
  float * float
(** Wilson score interval for a Monte-Carlo yield estimate — the
    honest error bar to print next to a sampled yield.
    [confidence] in (0,1), e.g. 0.95. *)
