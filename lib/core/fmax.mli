(** Maximum clock frequency (FMAX) distribution and speed binning.

    The paper's opening concern — the pipeline's operating frequency
    under variation — phrased the way its reference [1] (Bowman et al.,
    JSSC 2002) does: the distribution of [f_max = 1 / T_P] and the
    fraction of dies landing in each frequency bin.  Extension beyond
    the paper's own figures; built directly on {!Pipeline} and
    {!Yield}. *)

val mean_std : Pipeline.t -> float * float
(** Second-order delta-method moments of [1 / T_P] (frequency in 1/ps
    when delays are in ps):
    [E f ~ (1/mu)(1 + (sigma/mu)^2)], [sd f ~ sigma / mu^2]. *)

val quantile : Pipeline.t -> p:float -> float
(** Exact under the Gaussian-T_P model: the p-quantile of frequency is
    the (1-p)-quantile of delay, inverted.  Requires [p] in (0,1). *)

val cdf : Pipeline.t -> float -> float
(** Pr{f_max <= f} = Pr{T_P >= 1/f}. Requires [f > 0]. *)

type bin = {
  f_lo : float;  (** inclusive lower frequency edge; 0 = "too slow" *)
  f_hi : float;  (** exclusive upper edge; infinity for the top bin *)
  fraction : float;
}

val bin_fractions : Pipeline.t -> edges:float array -> bin array
(** Speed binning: [edges] are strictly increasing positive bin
    boundaries; returns |edges|+1 bins covering (0, inf) whose
    fractions sum to 1.  A die in bin i can be sold at any frequency
    below its measured f_max. *)

val expected_price : Pipeline.t -> edges:float array -> prices:float array -> float
(** Revenue-weighted binning: [prices] has one entry per bin (length
    |edges|+1, slowest bin first).  The classic argument for why sigma
    reduction is worth area. *)
