(** Affine (zonotope) delay forms — the correlation-aware abstract
    domain of the analyzer.

    A form [c + sum_j a_j eps_j + r] stands for a delay-like quantity:
    [c] is the center, each named noise symbol [eps_j] is an
    {e independent} standard normal shared across every form built from
    the same context (this is what carries inter-die and spatial
    correlation through [max] and [+]), and [r] ranges over the
    interval remainder [rem], which soundly absorbs whatever the
    operations cannot keep affine (the alpha-power linearisation gap,
    the Chebyshev error of [max]).

    Soundness contract (the {e box hypothesis}): every enclosure
    produced here holds for all noise vectors with [|eps_j| <= k] for
    each symbol — the same bounded-variation hypothesis as {!Bounds} —
    and the probabilistic enclosures additionally quantify the escape
    mass outside that box ({!escape_probability}).

    Symbols are independent by construction: correlated physical
    quantities (the spatial systematic field, the stage-delay MVN) are
    expressed in their Cholesky basis, mirroring exactly how the
    engine's samplers draw them.  Variances therefore add in
    quadrature ({!sigma}) — the entire tightening over the interval
    domain comes from this. *)

type symbol =
  | Factor of int
      (** [j]-th Cholesky factor of the stage-delay MVN (model-level
          forms; see [Spv_stats.Mvn.cholesky_row]). *)
  | Vth_inter  (** shared inter-die threshold-voltage draw *)
  | Leff_inter  (** shared inter-die channel-length draw *)
  | Sys of int
      (** [j]-th independent driver of the spatial systematic field
          (Cholesky basis of the stage-position correlation). *)
  | Rand of { stage : int; node : int }
      (** per-gate random (RDF) draw; [node = -1] is the stage's
          flip-flop. *)

type t = private {
  center : float;
  terms : (symbol * float) array;
      (** sorted by symbol, no zero and no duplicate coefficients *)
  rem : Interval.t;  (** interval remainder; always contains 0 or not —
                         whatever the construction proved *)
  events : int;
      (** number of probabilistic concentration events the remainder
          bound additionally relies on (one per chord-composed [max]);
          each holds except with probability [2 Phi(-k)] and is
          budgeted by {!escape_probability} *)
}

val const : float -> t
(** Exact constant: no symbols, remainder [\[0, 0\]].  Raises on NaN. *)

val make :
  ?events:int -> center:float -> terms:(symbol * float) list ->
  rem:Interval.t -> unit -> t
(** Normalises the term list (sorts, merges duplicates, drops zeros).
    [events] defaults to 0.  Raises [Invalid_argument] on NaN center
    or coefficient, or negative [events]. *)

val center : t -> float
val rem : t -> Interval.t
val n_terms : t -> int
val events : t -> int
val coeff : t -> symbol -> float
(** 0 when the symbol is absent. *)

val add : t -> t -> t
val add_const : t -> float -> t

val scale : t -> float -> t
(** Scale by any finite factor (negative allowed — the remainder is
    reflected through {!Interval.mul}).  Raises on NaN/infinite. *)

val sub : t -> t -> t

val linear_radius : t -> float
(** [sum_j |a_j|] — the worst-case (L1) half-width of the linear part
    per unit of [k]. *)

val sigma : t -> float
(** Gaussian standard deviation [sqrt (sum_j a_j^2)] of the linear
    part (symbols are independent standard normals). *)

val range : k:float -> t -> Interval.t
(** Hard enclosure under the box hypothesis:
    [center +- k * linear_radius + rem].  Never escapes while every
    [|eps_j| <= k]. *)

val concentration : k:float -> t -> Interval.t
(** Probabilistic enclosure [center +- k * sigma + rem]: holds except
    with probability at most {!escape_probability}.  This is the
    quadrature-vs-L1 tightening over {!range} (and over the interval
    domain). *)

val escape_probability : k:float -> t -> float
(** Union-bound escape mass of {!concentration}:
    [(n_terms + events + 1) * 2 * Phi(-k)] — each symbol may leave its
    box, each chord event may fail, and the Gaussian linear part may
    leave its [+-k sigma] band. *)

val absorb_dust : k:float -> eps:float -> t -> t
(** Move every linear term with [|coefficient| <= eps] into the
    interval remainder, widened by [+- k |coefficient|] — an exact
    transfer under the box hypothesis — and charge one concentration
    event per absorbed term so {!escape_probability} still budgets its
    box.  This rescues probability statements about near-cancelled
    differences of structurally equal forms: two sums of the same
    terms composed in different association order cancel to
    floating-point dust rather than to the empty term list, and a dust
    coefficient would otherwise send {!cdf_bounds} down the Gaussian
    branch — turning an exact tie's step function into a spurious
    [Phi(0) = 1/2].  Callers pick [eps] relative to the {e operand}
    scale of the subtraction (the form itself cannot distinguish dust
    from a genuinely tiny quantity).  Raises [Invalid_argument] on
    invalid [k] or a negative/non-finite [eps]. *)

val cdf_bounds : k:float -> t -> float -> Interval.t
(** [cdf_bounds ~k t x] encloses [P{value <= x}]: the linear part is
    exactly Gaussian, the remainder shifts the threshold both ways,
    and the box-escape mass widens each side.  Clamped to [0, 1]. *)

val mean_interval : t -> Interval.t
(** [center + rem] — encloses the conditional mean given the box
    (the linear part has zero mean, symmetrically truncated).  Callers
    must widen by a tail term before using it unconditionally (see
    {!Affine_sta}). *)

val max2 : k:float -> t -> t -> t
(** Sound affine [max].  When the sign of the difference is decided
    over the hard box ranges, the dominating operand is returned
    exactly.  Otherwise the remainders are separated from the linear
    parts — the result's remainder is a hull-style combination of the
    operands' remainders, not their sum — and
    [max(X, Y) = Y + relu(X - Y)] over the purely linear parts is
    over-approximated by the chord of [relu] on the difference's
    [+-k sigma] concentration band [\[a, b\]] — slope [b/(b-a)] — with
    the captured Chebyshev error [\[ab/(b-a), 0\]] added to the
    remainder and one concentration event charged to {!events}.
    Shared-symbol correlations are preserved throughout.  Degenerate
    (non-finite) ranges fall back to the interval hull of the
    operands' ranges. *)

val max_many : k:float -> t array -> t
(** Left fold of {!max2}.  Raises on an empty array. *)

val eval_interval : t -> (symbol -> float) -> Interval.t
(** Value enclosure at one concrete noise assignment:
    [center + sum_j a_j eps_j + rem].  Test oracle for per-world
    soundness; for forms with [events > 0] it holds on the
    intersection of the box with the chord events (almost every
    Gaussian draw at practical [k]). *)

val attribution : t -> (string * float) list
(** Per-class sigma contributions [sqrt (sum of squared coefficients)]
    grouped by class (["factor"], ["vth_inter"], ["leff_inter"],
    ["systematic"] or ["random"]), largest first. *)

val dominant : ?n:int -> t -> (symbol * float) list
(** The [n] (default 5) largest-|coefficient| symbols, largest first. *)

val pp : Format.formatter -> t -> unit
