(** Ablation and extension studies beyond the paper's figures.

    - {b criticality}: quantifies the paper's §3.2 argument — a
      balanced pipeline spreads the probability of being the critical
      stage (high entropy), the yield-optimal unbalanced design
      concentrates it;
    - {b correlation length}: how the spatial-correlation length of the
      systematic component moves pipeline sigma and yield (the paper
      fixes one value);
    - {b sizer policy}: sensitivity of the Lagrangian sizer's area and
      iteration count to its criticality temperature;
    - {b leakage tax}: mean-vs-nominal leakage ratio as random Vth
      sigma grows (the "power" half of the paper's area/power claim). *)

val node_scaling_study :
  unit -> (string * float * float * float) list
(** Per technology node (130/90/70/45 nm-like): (name, stage sigma/mu %,
    pipeline sigma/mu %, yield % at a 5%-guardband clock) for the same
    5x8 inverter-chain pipeline — the title's "sub-100nm" motivation
    quantified. *)

val run : unit -> unit
(** Print every study above, plus an SSTA-method comparison, a
    dual-Vth assignment on c432 and the pipeline variance budget. *)
