(** A pipeline as the max of N correlated Gaussian stage delays
    (eq. 1), with the Clark-approximated overall delay distribution
    (eqs. 4–6) and the Jensen lower bound (eq. 3). *)

type t

val make : Stage.t array -> corr:Spv_stats.Correlation.t -> t
(** Pipeline with an explicit stage-delay correlation matrix (the mode
    used when mu/sigma/rho come from outside, as in the paper's
    SPICE-fed experiments).  Requires a valid matrix of matching
    dimension and at least one stage. *)

val of_stages : ?corr_length:float -> Stage.t array -> t
(** Derive the correlation matrix from the stages' variation
    decomposition and die positions: shared inter-die variance plus
    spatially-decaying systematic covariance ([corr_length] defaults to
    {!Spv_process.Tech.bptm70}'s). *)

val of_circuits :
  ?pitch:float -> ?ff:Spv_process.Flipflop.t ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t array -> t
(** Analytic SSTA on each netlist, stages laid out in a row at [pitch]
    (default 1.0) die units. *)

val n_stages : t -> int
val stage : t -> int -> Stage.t
val stages : t -> Stage.t array
val correlation : t -> Spv_stats.Correlation.t
val stage_gaussians : t -> Spv_stats.Gaussian.t array

val delay_distribution : ?order:Clark.order -> t -> Spv_stats.Gaussian.t
(** The paper's (mu_T, sigma_T): Clark-iterated max over the stages. *)

val jensen_lower_bound : t -> float
(** Eq. 3: mu_T >= max_i mu_i. *)

val slowest_stage : t -> int
(** Index of the stage with the largest nominal delay. *)

val nominal_delay : t -> float
(** max_i mu_i — the deterministic designer's view (Fig. 1a). *)

val mvn : t -> Spv_stats.Mvn.t
(** Joint stage-delay sampler consistent with the model (for
    Monte-Carlo verification). *)

val with_stage : t -> int -> Stage.t -> t
(** Functional update of one stage; correlations are recomputed when
    the pipeline was built by decomposition ([of_stages]/[of_circuits])
    and kept otherwise. *)

val map_stages : t -> (Stage.t -> Stage.t) -> t

val pp : Format.formatter -> t -> unit
