(** Admissible (mu_i, sigma_i) design space of a stage under a target
    yield (Section 2.5, eqs. 10–13, Fig. 4).

    All bounds require [yield] in (0.5, 1) — a useful pipeline targets
    better-than-even yield, and the inverse CDF changes sign below
    0.5, which would flip the inequalities. *)

type point = { mu : float; sigma : float }

val mu_t_upper_bound : t_target:float -> yield:float -> sigma_t:float -> float
(** Eq. 10's right side: the largest admissible overall mean
    [mu_T <= T - sigma_T * Phi^-1(P_D)]; every stage mean must sit
    below it (Jensen). *)

val relaxed_sigma_bound : t_target:float -> yield:float -> mu:float -> float
(** Eq. 11: largest sigma_i admissible for a stage of mean [mu]
    assuming every other stage passes with probability 1:
    [(T - mu) / Phi^-1(P_D)].  Negative result means the mean alone
    already violates the bound. *)

val equality_sigma_bound :
  t_target:float -> yield:float -> n_stages:int -> mu:float -> float
(** Eq. 12: bound when all [n_stages] stages are independent with equal
    delay targets, i.e. each must reach yield [P_D^(1/Ns)]:
    [(T - mu) / Phi^-1(P_D^(1/Ns))]. *)

val realizable_sigma : mu_ref:float -> sigma_ref:float -> mu:float -> float
(** Eq. 13: along an inverter chain built from a reference inverter
    with (mu_ref, sigma_ref) under random variation,
    [mu = N_L * mu_ref] and [sigma = sqrt(N_L) * sigma_ref], hence
    [sigma(mu) = sigma_ref * sqrt(mu / mu_ref)]. *)

val inverter_reference :
  ?random_only:bool -> Spv_process.Tech.t -> size:float -> point
(** (mu, sigma) of one inverter of drive [size] driving a fixed load of
    4.0 cap units.  [random_only] (default true, matching the
    paper's eq. 13 derivation) keeps only the random component in
    sigma. *)

type curves = {
  mus : float array;
  relaxed : float array;  (** eq. 11 sigma bound per mu *)
  equality : (int * float array) list;  (** eq. 12, per stage count *)
  realizable_min : float array;
      (** eq. 13 from the minimum-size inverter (upper realizable curve) *)
  realizable_max : float array;
      (** eq. 13 from the maximum-size inverter (lower realizable curve) *)
  mu_min : float;  (** smallest realizable stage mean (one max-size inverter) *)
  sigma_min : float;  (** sigma floor at mu_min *)
}

val curves :
  ?tech:Spv_process.Tech.t -> ?n_points:int -> t_target:float ->
  yield:float -> stage_counts:int list -> unit -> curves
(** All Fig. 4 curves over a mu grid spanning (0, T_target]; the
    realizable curves come from the 1x and 16x inverters. *)

val admissible :
  t_target:float -> yield:float -> n_stages:int -> point -> bool
(** Point satisfies the eq. 12 equality bound for [n_stages]. *)

val realizable : ?tech:Spv_process.Tech.t -> point -> bool
(** Point lies between the two eq. 13 inverter-chain curves (1x and
    16x inverters) and above the single-inverter minimum. *)
