(** Spatially correlated systematic variation.

    Die locations carry a zero-mean, unit-variance Gaussian field with
    exponentially decaying correlation [exp(-d / corr_length)]; stage
    or gate systematic shifts are this field scaled by the technology's
    systematic sigmas. *)

type position = { x : float; y : float }

val position : x:float -> y:float -> position
val distance : position -> position -> float

val row_positions : n:int -> pitch:float -> position array
(** [n] locations in a row at the given pitch — how pipeline stages are
    laid out across the die in the experiments. *)

val correlation : Tech.t -> position -> position -> float
(** [exp (-distance / corr_length)]. *)

val correlation_matrix : Tech.t -> position array -> Spv_stats.Correlation.t

val field_factor : Tech.t -> position array -> Spv_stats.Matrix.t
(** Cholesky factor [L] of {!correlation_matrix} (jitter-tolerant):
    [L z] for standard normals [z] is one unit-variance field value
    per position. *)
