(** Decomposition of process variation into the paper's three
    components:

    - {b inter-die}: one draw per die, shifts every gate the same way;
    - {b intra-die random}: independent per device (random dopant
      fluctuation); its sigma shrinks as 1/sqrt(size) for wider gates;
    - {b intra-die systematic}: spatially correlated across the die
      (lithography, lens aberration), handled jointly with {!Spatial}.

    Each component perturbs both Vth and Leff; the linearised
    alpha-power model turns a parameter shift into a relative delay
    shift, so each component contributes a {e relative delay sigma}. *)

type shift = { dvth : float; dleff_rel : float }
(** A joint parameter displacement. *)

val rel_sigma_inter : Tech.t -> float
(** Relative delay sigma of the inter-die component (linearised,
    Vth and Leff contributions combined in quadrature). *)

val rel_sigma_sys : Tech.t -> float
val rel_sigma_rand : Tech.t -> size:float -> float

val delay_factor_linear : Tech.t -> shift -> float
(** Linearised relative delay multiplier for a shift. *)

val delay_factor_exact : Tech.t -> shift -> float
(** Exact alpha-power relative delay multiplier. *)
