(** One pipeline stage: eq. 1's [SD = T_C-Q + T_comb + T_setup] carried
    as a component-decomposed Gaussian, plus a die position for the
    spatial correlation model. *)

type t = {
  name : string;
  delay : Spv_process.Gate_delay.t;  (** total stage delay (with latch overhead) *)
  position : Spv_process.Spatial.position;
}

val make :
  ?name:string -> ?position:Spv_process.Spatial.position ->
  Spv_process.Gate_delay.t -> t

val of_moments :
  ?name:string -> ?position:Spv_process.Spatial.position -> mu:float ->
  sigma:float -> unit -> t
(** Stage from plain (mu, sigma) with the whole sigma treated as
    independent random — the mode in which the paper consumes
    SPICE-extracted numbers with an explicit correlation matrix. *)

type timing_method =
  | Path_based  (** critical-path composition ({!Spv_circuit.Ssta}) *)
  | Block_based  (** canonical-form block SSTA ({!Spv_circuit.Block_ssta}),
                     which also counts near-critical paths *)

val of_circuit :
  ?ff:Spv_process.Flipflop.t ->
  ?position:Spv_process.Spatial.position -> ?timing:timing_method ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t -> t
(** Stage from a gate-level netlist (default timing: [Path_based],
    matching the paper's critical-path framing). *)

val gaussian : t -> Spv_stats.Gaussian.t
val mu : t -> float
val sigma : t -> float

val variability : t -> float
(** sigma / mu. *)

val scale_delay : t -> float -> t
(** Scale nominal and all sigma components by a non-negative factor —
    the budget-rebalancing primitive used by the balance experiments. *)

val yield_alone : t -> t_target:float -> float
(** Pr{SD <= t_target} for this stage in isolation. *)

val pp : Format.formatter -> t -> unit
