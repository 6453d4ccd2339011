(** Balanced vs. unbalanced pipelines (Section 3.2, Figs. 6–8).

    A [stage_model] is a sampled area-vs-delay trade-off curve for one
    stage (produced by the sizing layer, or synthetic in tests), each
    sample carrying the stage's decomposed delay.  On top of it:
    balanced-design construction, the eq. 14 slope heuristic
    [R_i = -(dA/dD) * (D/A)], and a constant-area imbalance search that
    reproduces the paper's yield-improvement observation. *)

type curve_point = {
  delay : float;  (** nominal total stage delay, ps *)
  area : float;
  decomposed : Spv_process.Gate_delay.t;  (** stage delay at this point *)
}

type stage_model

val stage_model : name:string -> curve_point array -> stage_model
(** Points must be sorted by strictly increasing delay, with strictly
    decreasing area (faster costs more area), length >= 2. *)

val name : stage_model -> string
val points : stage_model -> curve_point array
val delay_bounds : stage_model -> float * float

val area_at : stage_model -> delay:float -> float
(** Piecewise-linear interpolation; clamps outside the sampled range. *)

val decomposed_at : stage_model -> delay:float -> Spv_process.Gate_delay.t
(** Component-wise interpolated stage delay at a delay budget. *)

val delay_at_area : stage_model -> area:float -> float
(** Inverse of [area_at] (the curve is monotone). *)

val ri : stage_model -> delay:float -> float
(** Eq. 14's slope measure: [-(dA/dD) * (D/A)] by central differencing.
    [R > 1]: area moves faster than delay (cheap to save area there);
    [R < 1]: delay is cheap to buy with area. *)

val pipeline_of :
  ?corr_length:float -> ?pitch:float -> stage_model array ->
  delays:float array -> Pipeline.t
(** Pipeline with stage i at delay budget [delays.(i)], stages in a row
    at [pitch] (default 1.0). *)

val total_area : stage_model array -> delays:float array -> float

val balanced_delays : stage_model array -> total_area:float -> float array
(** Equal-delay design consuming exactly [total_area]: the common delay
    D with [sum_i A_i(D) = total_area] (bisection).  Raises
    [Invalid_argument] if unreachable within every stage's bounds. *)

type solution = {
  delays : float array;
  area : float;
  yield : float;
}

val evaluate :
  ?corr_length:float -> ?pitch:float -> stage_model array ->
  delays:float array -> t_target:float -> solution

val optimise_constant_area :
  ?corr_length:float -> ?pitch:float -> stage_model array ->
  total_area:float -> t_target:float -> solution
(** Constant-area imbalance search: pairwise area exchanges between
    stages, keeping an exchange when the Clark yield at [t_target]
    improves; the step starts at 5% of the per-stage area and halves
    over 8 passes.  Starts from the balanced design. *)

val pessimise_constant_area :
  ?corr_length:float -> ?pitch:float -> stage_model array ->
  total_area:float -> t_target:float -> solution
(** Same search minimising yield — the paper's "unbalanced (worst)"
    reference of Fig. 7(b). *)

val order_by_ri : stage_model array -> delays:float array -> int array
(** Stage indices sorted by ascending [ri] — the Fig. 9 processing
    order (cheap-delay stages first). *)
