(** Small dense matrices — enough linear algebra for correlated
    Gaussian sampling (Cholesky) and least-squares fits. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val identity : int -> t
val of_arrays : float array array -> t
(** Row-major copy; all rows must have equal length. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float

val data : t -> float array
(** The row-major storage itself, not a copy: entry [(i, j)] sits at
    [i * cols + j].  For kernels that read many entries and must not
    box a float per {!get} call; never write to it. *)

val set : t -> int -> int -> float -> unit
val copy : t -> t
val transpose : t -> t
val mul : t -> t -> t
val mat_vec : t -> float array -> float array
val lower_mat_vec_into : t -> Float.Array.t -> Float.Array.t -> unit
(** [lower_mat_vec_into l x out] writes [l x] to [out] for a square
    lower-triangular [l], such as a {!cholesky} factor, and allocates
    nothing.  Only the lower triangle, diagonal included, is read: the
    upper triangle is ignored as if it were zero.  For a
    lower-triangular [l] and finite [x] the sums equal {!mat_vec}'s
    bit for bit.  [l] must be square with as many rows as [x] and
    [out] have entries; raises [Invalid_argument] otherwise. *)

val scale : t -> float -> t
val add : t -> t -> t

val is_symmetric : ?eps:float -> t -> bool

val cholesky : t -> t
(** Lower-triangular [l] with [l * l^T = a] for a symmetric positive
    definite [a].  Raises [Failure] if [a] is not (numerically)
    positive definite. *)

val cholesky_psd : t -> t
(** Cholesky that tolerates positive *semi*-definite inputs (needed for
    perfectly-correlated stage delays, rho = 1) by adding a tiny
    diagonal jitter (1e-10 of the largest diagonal entry, growing
    100-fold per retry, three tries) on failure. *)

val sym_eig : t -> float array * t
(** Eigendecomposition of a symmetric matrix by cyclic Jacobi
    rotations (at most 64 sweeps): [(lambda, v)] with [a = v * diag lambda * v^T] and the
    i-th eigenvector in column i of [v].  Eigenvalues are unsorted.
    Raises [Invalid_argument] for a non-square or non-symmetric
    input. *)

val solve_lower : t -> float array -> float array
(** Forward substitution [l x = b] with lower-triangular [l]. *)

val solve_upper : t -> float array -> float array
(** Back substitution [u x = b] with upper-triangular [u]. *)

val solve_spd : t -> float array -> float array
(** Solve [a x = b] for symmetric positive definite [a] via Cholesky. *)

val least_squares : t -> float array -> float array
(** Minimise ||a x - b|| via normal equations (small systems only). *)

val pp : Format.formatter -> t -> unit
