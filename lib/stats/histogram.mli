(** Fixed-width binned histograms (Fig. 2 / Fig. 7 style outputs). *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Empty histogram over [\[lo, hi)] with [bins] equal-width bins.
    Requires [lo < hi] and [bins > 0]. *)

val of_samples : ?bins:int -> float array -> t
(** Histogram spanning the sample range (slightly widened); default 50
    bins. Raises [Invalid_argument] on an empty or
    NaN/infinity-containing array. *)

val add : t -> float -> unit
(** Insert one observation.  Values outside the range are counted in
    the under/overflow totals, not in any bin; non-finite values are
    counted in {!rejected} and never binned. *)

val add_all : t -> float array -> unit

val bins : t -> int
val count : t -> int -> int
val total : t -> int
(** Total observations inserted, including under/overflow. *)

val underflow : t -> int
val overflow : t -> int

val rejected : t -> int
(** Non-finite observations passed to {!add} (never binned, not part
    of {!total}). *)

val bin_center : t -> int -> float
val bin_width : t -> float

val density : t -> int -> float
(** Empirical probability density of a bin: count / (total * width);
    comparable directly against an analytic pdf. *)

val frequency : t -> int -> float
(** count / total. *)

val mode_bin : t -> int
(** Index of the fullest bin (leftmost on ties). Requires >= 1 inserted
    in-range observation. *)

val to_series : t -> (float * float) array
(** (bin center, density) pairs for plotting/printing. *)
