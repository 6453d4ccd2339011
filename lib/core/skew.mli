(** Clock skew in the statistical pipeline model.

    Eq. 1 assumes ideal clocking.  With a skewed clock the stage-i
    constraint becomes
    [T >= SD_i + (s_(i+1) - s_i)] where [s_k] is the clock arrival at
    boundary k — so the pipeline delay is the max of {e skew-adjusted}
    stage delays.  Modelling the [s_k] as zero-mean Gaussians with
    exponentially decaying spatial correlation along the stage row:

    - each stage's variance grows by
      [var(ds) = 2 sigma_s^2 (1 - rho(pitch))];
    - adjacent stages become {e negatively} correlated through the
      shared boundary (the same clock edge captures stage i and
      launches stage i+1), which the plain stage-delay model cannot
      express — skew is not just extra noise.

    Extension beyond the paper; exact within the jointly-Gaussian
    model. *)

type model = {
  sigma_ps : float;  (** skew sigma per clock endpoint, ps *)
  corr_length : float;  (** spatial correlation length of the clock
                            arrivals, die units *)
}

val delta_covariance : model -> pitch:float -> int -> int -> float
(** Cov(ds_i, ds_j) of the boundary-difference terms for stages [i],
    [j] at the given stage pitch (exact under the endpoint model). *)

val apply : ?pitch:float -> Pipeline.t -> model -> Pipeline.t
(** Pipeline whose stage delays are skew-adjusted: same means, inflated
    sigmas, and a correlation matrix combining the original stage
    correlations with the skew-difference covariances.  The result
    carries an explicit correlation matrix (the component decomposition
    cannot express the negative neighbour terms). *)

val yield_penalty :
  ?pitch:float -> Pipeline.t -> model -> t_target:float -> float
(** [yield without skew - yield with skew] at a target (>= 0 in
    practice at above-median targets). *)
