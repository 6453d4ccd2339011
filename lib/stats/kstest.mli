(** One-sample Kolmogorov–Smirnov test.

    Quantifies the paper's working assumption that the max of Gaussian
    stage delays is itself approximately Gaussian (Section 2.4). *)

type result = {
  statistic : float;  (** sup |F_emp - F_ref| *)
  p_value : float;    (** asymptotic Kolmogorov p-value *)
  n : int;
}

val against_cdf : float array -> cdf:(float -> float) -> result
(** KS distance of a sample against an arbitrary reference CDF.
    Raises [Invalid_argument] on an empty or NaN/infinity-containing
    sample, whose order statistics are meaningless. *)

val against_gaussian : float array -> Gaussian.t -> result

val kolmogorov_sf : float -> float
(** Survival function Q_KS(lambda) = 2 sum_{k>=1} (-1)^{k-1}
    exp(-2 k^2 lambda^2). *)
