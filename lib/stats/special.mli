(** Special functions for the standard normal distribution.

    All of the paper's analytics are built on the standard normal pdf
    [phi], cdf [big_phi] and quantile [big_phi_inv]; these are
    implemented from scratch (no external numerics dependency). *)

val erf : float -> float
(** Error function, through the regularised incomplete gamma function
    P(1/2, x{^2}) (power series below x{^2} = 1.5, continued fraction
    above): within a few ulps, e.g. relative error under 3e-16 at
    x = 0.1, 0.5, 1, 2 and 3. *)

val erfc : float -> float
(** Complementary error function, computed directly in the tails so
    it keeps its relative precision there (under 1.6e-15 at x = 1, 3
    and 5) instead of cancelling as [1 - erf x] would. *)

val phi : float -> float
(** Standard normal probability density. *)

val big_phi : float -> float
(** Standard normal cumulative distribution function. *)

val big_phi_inv : float -> float
(** Quantile function of the standard normal.  Acklam's rational
    approximation refined with one Halley step (|abs error| < 1e-9 over
    (0,1)).  Raises [Invalid_argument] outside (0, 1). *)

val log_big_phi : float -> float
(** [log (big_phi x)], numerically stable for very negative [x]. *)

val upper_tail : float -> float
(** [P{X > x} = 1 - big_phi x], computed through [erfc_pos] so
    high-sigma tails keep full relative precision: [upper_tail 8.0]
    is ~6.2e-16 where the naive [1. -. big_phi 8.0] rounds to 0.
    Underflows to 0 only past x ~ 38. *)

val big_phi_into : Float.Array.t -> pos:int -> len:int -> unit
(** [big_phi_into a ~pos ~len] replaces each of the [len] entries from
    [pos] with its {!big_phi}, bit for bit, and allocates nothing: a
    kernel that evaluates Phi per entry in a loop calls this (with
    [len = 1] if need be) instead of boxing a float per {!big_phi}
    call.  Raises [Invalid_argument] if the range is out of bounds. *)

val upper_tail_into : Float.Array.t -> pos:int -> len:int -> unit
(** {!upper_tail} in place, as {!big_phi_into} does {!big_phi}. *)

val normal_cdf : mu:float -> sigma:float -> float -> float
(** CDF of N(mu, sigma) at a point. [sigma = 0] degenerates to a step. *)

val normal_pdf : mu:float -> sigma:float -> float -> float
(** Density of N(mu, sigma) at a point. Requires [sigma > 0]. *)

val normal_quantile : mu:float -> sigma:float -> p:float -> float
(** Quantile of N(mu, sigma). Requires [p] in (0,1) and [sigma >= 0]. *)
