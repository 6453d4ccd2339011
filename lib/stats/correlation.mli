(** Correlation-matrix construction.

    The paper's stage delays are correlated Gaussians; these helpers
    build the common correlation structures (uniform rho, spatial
    exponential decay, inter+intra mixtures). *)

type t = Matrix.t
(** Symmetric matrix with unit diagonal. *)

val uniform : n:int -> rho:float -> t
(** All off-diagonal entries equal to [rho].  Valid for
    [-1/(n-1) <= rho <= 1]. Raises [Invalid_argument] otherwise. *)

val independent : n:int -> t
val perfectly_correlated : n:int -> t

val exponential_decay : n:int -> positions:float array -> length:float -> t
(** [rho_ij = exp (-|x_i - x_j| / length)] — the standard spatial
    correlation model for systematic intra-die variation.  [length]
    must be positive. *)

val of_function : n:int -> (int -> int -> float) -> t
(** Builds the matrix from a pairwise function (symmetrised, unit
    diagonal forced). *)

val blend : weight:float -> t -> t -> t
(** Convex combination [weight * a + (1-weight) * b]; models mixing a
    fully-correlated (inter-die) component with an independent
    (random) one.  [weight] in [0,1]. *)

val get : t -> int -> int -> float

val sample_correlation : float array -> float array -> float
(** Pearson correlation of two equal-length sample arrays
    (length >= 2, non-degenerate). *)
