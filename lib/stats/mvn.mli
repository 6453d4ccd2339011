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

val transform_into : t -> Float.Array.t -> Float.Array.t -> unit
(** [transform_into t z x] writes {!transform}[ t z] to [x], bit for
    bit, without allocating.  Both arrays need [dim t] entries. *)

type sampler
(** One shard's draw state: the distribution plus its own [z] and [x]
    scratch, so a draw allocates nothing.  Use one sampler per domain;
    the distribution itself is shared read-only. *)

val sampler : t -> sampler

val sample_max : sampler -> Rng.t -> float
(** Max component of one joint draw — a pipeline-delay sample.  Draws
    the same normals as {!sample} and returns the max of its result. *)

val cholesky_row : t -> int -> float array
(** Row [i] of the covariance's Cholesky factor L (so component i is
    [mu_i + row_i . z]); the geometry rare-event shifts need. *)

val cholesky : t -> Matrix.t
(** The Cholesky factor L itself, not a copy: lower triangular, with
    exact zeros above the diagonal.  With {!means} and {!sigmas} it
    lets a kernel read the distribution in place through
    {!Matrix.data} instead of boxing a float per {!mean} or
    {!cholesky_row} entry.  Never write to any of the three. *)

val means : t -> float array
(** The mean vector itself, not a copy. *)

val sigmas : t -> float array
(** The marginal standard deviations themselves, not a copy. *)

val mean : t -> int -> float
val marginal : t -> int -> Gaussian.t
val covariance : t -> int -> int -> float
