(** Canonical first-order statistical delay/arrival forms.

    The block-based SSTA representation (Visweswariah et al., DAC'04
    style, specialised to this library's variation model): a timing
    quantity is

    [ d = nominal + s_inter * X_inter + s_sys * X_sys + s_rand * X_r ]

    where [X_inter], [X_sys] are global standard normals shared by
    every form on the die (inter-die shift, and the stage's systematic
    field) and [X_r] is an independent standard normal private to this
    form (the aggregated random contribution).

    [add] is exact.  [max] uses Clark's moments and re-expresses the
    result in canonical form: the shared sensitivities are blended with
    the tightness probability (preserving covariance with the global
    parameters) and the independent part absorbs the residual variance,
    so the total variance is exactly Clark's. *)

type t = {
  nominal : float;
  s_inter : float;  (** sensitivity to the shared inter-die normal *)
  s_sys : float;  (** sensitivity to the shared systematic normal *)
  s_rand : float;  (** aggregated independent sigma (>= 0) *)
}

val zero : t
val deterministic : float -> t

val of_gate_delay : Spv_process.Gate_delay.t -> t
(** A gate's decomposed delay as a canonical form (component sigmas map
    one-to-one onto sensitivities). *)

val to_gate_delay : t -> Spv_process.Gate_delay.t
(** Inverse of {!of_gate_delay}; sensitivities must be non-negative
    (arrival forms produced by [add]/[max] of gate delays always are). *)

val mean : t -> float
val variance : t -> float
val sigma : t -> float
val to_gaussian : t -> Spv_stats.Gaussian.t

val covariance : t -> t -> float
(** Covariance through the shared parameters only (the independent
    parts never correlate). *)

val correlation : t -> t -> float

val add : t -> t -> t
(** Sum of two forms (shared sensitivities add; independent parts add
    in quadrature). Exact. *)

val max : t -> t -> t
(** Clark max re-canonicalised.  The result's mean and variance are
    Clark's; shared sensitivities are the tightness-weighted blend
    [T s_a + (1-T) s_b] with [T = Phi(alpha)]; the independent sigma
    absorbs the remaining variance (clamped at zero if the blend
    already overshoots, which only happens within rounding). *)

val tightness : t -> t -> float
(** Pr{first >= second} under the joint model — the blending weight
    used by {!max}. *)

val pp : Format.formatter -> t -> unit
