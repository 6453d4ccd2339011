(** Deterministic pseudo-random number generation.

    The generator is xoshiro256++ seeded through splitmix64, which gives
    high-quality 64-bit streams with a tiny state.  Every stochastic
    function in the library takes an explicit generator so that all
    experiments are reproducible from a fixed seed. *)

type t
(** Mutable generator state: the four xoshiro words in a 32-byte
    buffer and the spare polar-method normal in a float array, so no
    draw boxes an [int64] or a [float] kept in the state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed].
    Equal seeds yield equal streams. *)

val copy : t -> t
(** Independent snapshot of the current state. *)

val split : t -> int -> t array
(** [split rng n] derives [n] generators from [rng], advancing [rng].
    Each child's four state words come from four independent 64-bit
    parent draws, each mixed through one splitmix64 step (the xoshiro
    authors' recommended seeding), so children carry the parent's full
    256 bits of entropy and the streams are (statistically) independent
    of the parent and of each other.  The result is a pure function of
    the parent's state: equal parent states and equal [n] yield
    bit-identical stream arrays — the basis for the engine's
    deterministic domain-parallel Monte-Carlo.  Requires [n > 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform draw in [0, 1) with 53-bit resolution. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw in [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> bound:int -> int
(** Uniform integer in [\[0, bound)] by masked rejection sampling (no
    modulo bias, any [bound] up to [max_int]).  Raises
    [Invalid_argument] unless [bound > 0]. *)

val gaussian : t -> float
(** Standard normal draw (Marsaglia polar method, both antithetic
    values used). *)

val gaussians_into : t -> Float.Array.t -> pos:int -> len:int -> unit
(** [gaussians_into rng out ~pos ~len] writes [len] standard normals
    to [out.(pos)] .. [out.(pos + len - 1)]: the same values, in the
    same order, as [len] calls of {!gaussian}, spare included.  It
    allocates nothing, which is how other modules draw normals without
    boxing them.  Raises [Invalid_argument] if the range does not fit
    in [out]. *)

val gaussian_mu_sigma : t -> mu:float -> sigma:float -> float
(** Normal draw with mean [mu] and standard deviation [sigma >= 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
