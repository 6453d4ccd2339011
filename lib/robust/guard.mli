(** Numerical health guards: finiteness post-conditions and
    correlation clamping.

    Philosophy: degeneracy that is plausibly floating-point noise (rho
    at 1 + 1e-12) is repaired and {e reported}; anything worse is a
    typed {!Errors.Numeric_error} — never a crash, never a silent
    NaN. *)

val finite : where:string -> float -> (float, Errors.t) result
(** Post-condition: the value is finite; [where] names the computation
    stage for the diagnostic. *)

val finite_array : where:string -> float array -> (float array, Errors.t) result

val finite_gaussian :
  where:string -> Spv_stats.Gaussian.t -> (Spv_stats.Gaussian.t, Errors.t) result

val clamp_rho : where:string -> float -> (float * bool, Errors.t) result
(** Correlations within 1e-6 outside [-1, 1] — the
    signature of accumulated rounding in e.g.
    {!Spv_core.Clark.correlation_with_max} — are clamped; the boolean
    reports whether clamping happened.  NaN or a gross violation is a
    typed error. *)
