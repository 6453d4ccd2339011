(** Dual-Vth assignment: trade leakage for delay on non-critical gates.

    The standard companion of sizing in leakage-constrained sub-100nm
    flows (and a staple of the paper's research group): every gate can
    be implemented with the nominal low-Vth device (fast, leaky) or a
    high-Vth variant (slower by a known factor, exponentially less
    leaky).  Starting from all-low-Vth, greedily swap the gates with
    the most leakage saved per picosecond of statistical slack consumed
    to high-Vth while the stage still meets
    [mu + z sigma <= t_target].

    Assignments live outside the netlist (a per-node flag array), so
    the same netlist can be evaluated under different assignments; the
    timing engine is {!Spv_circuit.Sta.run_with_factors}. *)

type assignment = {
  high_vth : bool array;  (** per node; input entries are meaningless *)
  delay_penalty : float;  (** multiplicative slow-down of high-Vth gates *)
  vth_offset : float;  (** Vth increase of the high-Vth device, V *)
}

val all_low : Spv_circuit.Netlist.t -> delay_penalty:float -> vth_offset:float ->
  assignment
(** Every gate on the fast device. Defaults for the 70nm-like node:
    penalty 1.15, offset 80 mV (a standard dual-Vth menu). *)

val n_high : assignment -> int

val delay_factors : Spv_circuit.Netlist.t -> assignment -> float array
(** Per-node delay multipliers for {!Spv_circuit.Sta.run_with_factors}. *)

val stat_delay :
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Spv_circuit.Netlist.t -> assignment -> z:float -> float
(** [mu + z sigma] of the stage under the assignment (critical-path
    composition on the factored timing). *)

val leakage :
  Spv_process.Tech.t -> Spv_circuit.Netlist.t -> assignment -> float
(** Expected die leakage under the assignment (lognormal means per
    gate, high-Vth gates scaled by [exp(-vth_offset / (n vT))]). *)

type result = {
  assignment : assignment;
  swapped : int;  (** gates moved to high-Vth *)
  leakage_before : float;
  leakage_after : float;
  stat_delay_after : float;
}

val optimise :
  ?ff:Spv_process.Flipflop.t ->
  ?delay_penalty:float -> ?vth_offset:float -> Spv_process.Tech.t ->
  Spv_circuit.Netlist.t -> t_target:float -> z:float -> result
(** Greedy criticality-guided assignment under the statistical delay
    budget.  Gates are visited in ascending block-SSTA criticality;
    each trial swap is kept only if the stage still meets the target.
    Raises [Invalid_argument] on a non-finite target or if the all-low
    design already misses it. *)
