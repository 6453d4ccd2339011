(** Stage criticality and yield sensitivities.

    Section 3.2 of the paper argues that a balanced pipeline is fragile
    because {e every} stage is (probabilistically) critical, while an
    unbalanced one concentrates criticality.  This module quantifies
    that argument:

    - {!probabilities}: Pr{stage i is the slowest} per stage;
    - {!entropy}: the Shannon entropy of that distribution — maximal
      for a perfectly balanced pipeline, 0 when one stage dominates;
    - {!yield_gradient_mu}: d(yield)/d(mu_i), the first-order payoff of
      speeding each stage up, which is what the eq. 14 exchange
      ultimately trades against area. *)

val probabilities :
  ?n:int -> Pipeline.t -> Spv_stats.Rng.t -> float array
(** Monte-Carlo estimate of Pr{SD_i = max_j SD_j} ([n] joint draws,
    default 20000).  Sums to 1: ties go to the lowest index.  A
    zero-sigma stage takes its exact mean in every draw, so ties
    between deterministic stages are real; between continuous stages
    they are a null event. *)

val probabilities_analytic_independent : Pipeline.t -> float array
(** For independent stages, exactly
    Pr{i critical} = int phi_i(t) prod_{j<>i} Phi_j(t) dt by
    quadrature.  Ignores the correlation matrix.  Tied deterministic
    stages follow {!probabilities}: the lowest index is critical. *)

val entropy : float array -> float
(** Shannon entropy (nats) of a criticality distribution; zero terms
    are skipped. Requires non-negative entries. *)

val yield_gradient_mu :
  Pipeline.t -> t_target:float -> float array
(** d P_D / d mu_i under the independent-product model (eq. 8):
    [-phi_i(T) * prod_{j<>i} Phi_j(T)].  Negative: increasing a stage
    mean always hurts.  The magnitudes rank stages by how much yield a
    unit of mean-delay reduction buys — the statistical version of the
    paper's "which stage should get the area". *)

val most_critical : float array -> int
(** Index of the largest entry. *)
