(** Figs. 6–8: the 3-stage ALU–decoder pipeline — balanced vs
    unbalanced designs at constant area (Fig. 7), and the per-stage
    area-vs-delay curves with the eq. 14 slope heuristic (Fig. 8). *)

type setup = {
  models : Spv_core.Balance.stage_model array;  (** ALU-I, decoder, ALU-II *)
  t_target : float;  (** pipeline delay target, ps *)
  z : float;  (** per-stage sizing z for the 80% pipeline target *)
  tech : Spv_process.Tech.t;
}

val setup : ?bits:int -> unit -> setup
(** Builds the three stage netlists (ALU slice width [bits], default 8),
    extracts their area-delay curves with the statistical sizer and
    picks a feasible common delay target. *)

type comparison = {
  balanced : Spv_core.Balance.solution;
  unbalanced_best : Spv_core.Balance.solution;
  unbalanced_worst : Spv_core.Balance.solution;
  ri : float array;  (** eq. 14 slope per stage at the balanced point *)
}

val compare_at : setup -> target_yield:float -> comparison
(** Balanced design tuned (by bisection on the common stage delay) to
    achieve exactly [target_yield] at the setup's delay target; best
    and worst constant-area imbalances of the same total area. *)

val run : unit -> unit
