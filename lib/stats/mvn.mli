(** Multivariate normal sampling.

    Used by the pipeline-level Monte-Carlo reference: stage delays are
    drawn jointly from N(mu, Sigma) where Sigma is assembled from the
    per-stage sigmas and a correlation matrix. *)

type t

val create : mus:float array -> sigmas:float array -> corr:Correlation.t -> t
(** Precomputes the Cholesky factor of the covariance.  [sigmas] must
    be non-negative; [corr] must be a valid [n x n] correlation matrix
    matching the length of [mus]. *)

val dim : t -> int
val sample : t -> Rng.t -> float array
(** One joint draw. *)

val transform : t -> float array -> float array
(** Push a vector of standard normals through the distribution:
    [mu + L z] with [L] the Cholesky factor.  Requires [dim t]
    entries.  The basis for stratified designs ({!Sampling}). *)

val sample_many : t -> Rng.t -> n:int -> float array array
(** [n] joint draws (rows). *)

val sample_max : t -> Rng.t -> float
(** Max component of one joint draw — a pipeline-delay sample. *)

val cholesky_row : t -> int -> float array
(** Row [i] of the covariance's Cholesky factor L (so component i is
    [mu_i + row_i . z]); the geometry rare-event shifts need. *)

val mean : t -> int -> float
val marginal : t -> int -> Gaussian.t
val covariance : t -> int -> int -> float
