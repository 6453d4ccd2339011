(** Static sizing certificates: sound membership checks of a sizing
    result against the paper's eq. 10–13 design space at a target
    yield.

    Given the achieved per-stage delay Gaussians [(mu_i, sigma_i)] and
    a [(t_target, yield)] goal, the checker decides one of three
    verdicts without sampling:

    - {b Refuted}: some stage's marginal yield
      [Phi((T - mu_i)/sigma_i)] is below the pipeline target.  By the
      Fréchet upper bound [P{max <= T} <= min_i Phi_i] this refutes
      the design under {e any} stage dependence — the refuting stage
      is the structured counterexample.
    - {b Proved}: either the dependence-free Fréchet lower bound
      [1 - sum_i (1 - Phi_i)] reaches the target, or — when every
      pairwise stage correlation is nonnegative — the independence
      product [prod_i Phi_i] does (Slepian's inequality makes the
      product a lower bound under positive dependence).
    - {b Inconclusive}: neither side is decided; the certificate
      neither proves nor refutes.

    Per stage the checker also reports the eq. 11 (relaxed) and eq. 12
    (equality-allocation) sigma caps and eq. 12 admissibility, plus
    the eq. 10 mean cap for the pipeline. *)

type status = Proved | Refuted | Inconclusive

val status_name : status -> string

type stage_check = {
  stage : int;
  point : Spv_core.Design_space.point;  (** achieved (mu, sigma) *)
  stage_yield : float;  (** [Phi((T - mu)/sigma)]; step function at sigma 0 *)
  required_yield : float;  (** eq. 12 allocation [yield^(1/n)] *)
  sigma_cap_equality : float;  (** eq. 12 sigma bound at this mu *)
  sigma_cap_relaxed : float;  (** eq. 11 sigma bound at this mu *)
  admissible : bool;  (** eq. 12 membership ([Design_space.admissible]) *)
}

type t = {
  t_target : float;
  yield : float;
  n_stages : int;
  stages : stage_check array;
  product_yield : float;  (** [prod_i Phi_i] (eq. 8 closed form) *)
  min_yield : float;  (** Fréchet upper bound on the true yield *)
  frechet_lo : float;  (** dependence-free lower bound [1 - sum (1-Phi_i)] *)
  mu_t_cap : float;
      (** eq. 10 mean cap [T - sigma_T Phi^-1(yield)], with the
          largest stage sigma standing in for [sigma_T] (informational
          — never drives a refutation) *)
  nonneg_correlation : bool;
      (** true when every pairwise stage correlation is >= 0, enabling
          the Slepian prove path *)
  status : status;
  counterexample : stage_check option;  (** the refuting stage, if any *)
}

val of_points :
  ?nonneg_correlation:bool -> t_target:float -> yield:float ->
  Spv_core.Design_space.point array -> t
(** Certificate over explicit stage Gaussians.  [nonneg_correlation]
    defaults to [false] (the Slepian path needs evidence of positive
    dependence; without it only the dependence-free bounds are used).
    Raises [Invalid_argument] on an empty array, non-finite inputs,
    negative sigma, non-positive [t_target], or [yield] outside
    (0.5, 1). *)

val of_ctx :
  ?t_target:float -> yield:float -> Spv_engine.Engine.Ctx.t -> t
(** Certificate of a context's achieved stage Gaussians.
    [t_target] defaults to the context's Clark mean plus three Clark
    sigmas.  Positive dependence is read off the context's stage
    correlation matrix. *)

type solution = {
  sol_t_target : float;
  sol_yield : float;
  points : Spv_core.Design_space.point array;
}

val parse_solution : string -> (solution, string) result
(** Parse a solution file (contents, not path).  Line format:
    [t_target <float>], [yield <float>], [stage <i> <mu> <sigma>];
    [#] starts a comment; blank lines ignored.  Stage indices must be
    exactly [0 .. n-1] (any order).  Returns [Error msg] on malformed
    input. *)

val findings : t -> Report.finding list
(** Pass ["certify"]: one pipeline finding with the verdict and
    bounds, one per-stage finding with the achieved point, its yield
    and sigma caps ([Error] severity on a refuting stage — the
    structured counterexample — [Warn] on an eq. 12 inadmissible but
    not refuting stage). *)

val sizing_check :
  where:string -> t_target:float -> z:float -> converged:bool ->
  mu:float -> sigma:float -> (unit, string) result
(** Single-stage certificate for the sizing hook: the achieved stage
    must reach its allocated yield [Phi(z)], i.e.
    [mu + z sigma <= t_target (1 + tol)] with the sizers' convergence
    tolerance ([tol = 1e-2]).  Unconverged reports and non-positive
    [z] are skipped ([Ok ()]) — the sizer already signals failure. *)

val install_sizing_check : unit -> unit
(** Register {!sizing_check} as the [Spv_sizing.Certify_hook] oracle:
    from then on every sizer report is checked. *)
