(** Numerical health guards: finiteness post-conditions, correlation
    clamping, and PSD repair of user-supplied correlation matrices.

    Philosophy: degeneracy that is plausibly floating-point noise (rho
    at 1 + 1e-12, a correlation matrix with a -1e-9 eigenvalue) is
    repaired and {e reported}; anything worse is a typed
    {!Errors.Numeric_error} — never a crash, never a silent NaN. *)

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

type psd_report = {
  repaired : bool;
  min_eigenvalue : float;  (** of the {e input} matrix *)
  max_abs_delta : float;  (** max entrywise perturbation applied *)
  frobenius_delta : float;  (** Frobenius norm of the perturbation *)
}

val pp_psd_report : Format.formatter -> psd_report -> unit

val repair_correlation :
  ?eps:float ->
  Spv_stats.Matrix.t ->
  (Spv_stats.Matrix.t * psd_report, Errors.t) result
(** Eigenvalue clipping with shrinkage back to unit diagonal: clip the
    spectrum at a tiny positive floor, reconstruct [V D+ V^T], rescale
    to a correlation matrix, and report the perturbation magnitude.
    A matrix that is PSD up to [eps] (default 1e-10) is returned
    unchanged with [repaired = false].  Non-square, non-symmetric,
    non-finite, wild-entry or unrepairable inputs are typed errors. *)
