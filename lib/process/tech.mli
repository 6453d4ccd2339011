(** Technology-node description.

    Stand-in for the paper's BPTM 70 nm SPICE decks: the handful of
    device parameters the alpha-power delay model and the variation
    model consume.  [bptm70] is calibrated so that nominal inverter
    delays and sigma/mu ratios land in the same range as the paper's
    SPICE Monte-Carlo numbers. *)

type t = {
  name : string;
  vdd : float;  (** supply voltage, V *)
  vth0 : float;  (** nominal threshold voltage, V *)
  alpha : float;  (** alpha-power-law velocity-saturation exponent *)
  tau : float;
      (** ps; delay unit of a minimum inverter (logical-effort tau) *)
  leff0 : float;  (** nominal effective channel length, nm *)
  sigma_vth_inter : float;  (** inter-die Vth sigma, V *)
  sigma_vth_rand : float;
      (** intra-die random (RDF) Vth sigma for a minimum-size device, V.
          Scales as 1/sqrt(size) for wider devices. *)
  sigma_vth_sys : float;  (** intra-die systematic (spatial) Vth sigma, V *)
  sigma_leff_rel_inter : float;  (** inter-die relative Leff sigma *)
  sigma_leff_rel_sys : float;  (** systematic relative Leff sigma *)
  vth_leff_coupling : float;
      (** Vth roll-off coupling: dVth per unit relative Leff deviation
          (a longer channel raises Vth), V *)
  corr_length : float;
      (** spatial correlation length of the systematic component, in the
          same abstract die units as gate positions *)
}

val bptm70 : t
(** Default 70 nm-like node: Vdd 1.0 V, Vth 0.20 V, alpha 1.3,
    sigma_Vth inter 40 mV / random 30 mV / systematic 20 mV. *)

val scaling_nodes : t list
(** 130, 90, 70 ({!bptm70}) and 45 nm-like nodes, descending feature
    size, for scaling studies.  Nominal parameters follow the usual
    constant-field trends (Vdd, tau shrink with the node); the
    variation sigmas grow as features shrink — random Vth as
    1/sqrt(W L) (RDF), the shared components more slowly.  Values are
    calibrated to the published BPTM/ITRS ballpark, not to a specific
    foundry kit. *)

val with_inter_vth : t -> sigma_mv:float -> t
(** Override the inter-die Vth sigma (given in mV) — the knob swept in
    Figs. 2 and 5. *)

val with_random_vth : t -> sigma_mv:float -> t
val with_sys_vth : t -> sigma_mv:float -> t

val no_variation : t -> t
(** All variation sigmas forced to zero (deterministic corner). *)

val delay_sensitivity_vth : t -> float
(** d(ln delay)/dVth = alpha / (Vdd - Vth0), in 1/V, from the
    alpha-power law. *)

val delay_sensitivity_leff : t -> float
(** d(ln delay)/d(ln Leff): the direct 1/Leff current dependence plus
    the roll-off-induced Vth shift, i.e.
    [1 + vth_leff_coupling * delay_sensitivity_vth]. *)

val pp : Format.formatter -> t -> unit
