(** Fig. 3: trend of the Clark-model error (a) with the number of
    pipeline stages and (b) with the stage-delay correlation
    coefficient.

    Error references: the exact independent-max moments (numerical
    integration) for panel (a), and a large fixed-seed Monte-Carlo of
    the joint Gaussian for panel (b). *)

type point = {
  x : float;  (** stage count or correlation coefficient *)
  mean_err_pct : float;  (** |mu_clark - mu_ref| / mu_ref * 100 *)
  std_err_pct : float;
}

val error_vs_stages :
  ?mu:float -> ?sigma:float -> ?stage_counts:int array -> unit -> point array
(** Equal independent stages (defaults mu = 100, sigma = 10,
    counts 2..30). *)

val ordering_ablation :
  ?mu_spread:float -> ?sigma:float -> ?n_stages:int -> unit ->
  (Spv_core.Clark.order * float * float) list
(** Extension: Clark mean/std error (% vs exact independent) for the
    three fold orders on stages with distinct means — demonstrates the
    paper's claim that increasing-mean ordering minimises the error. *)

val run : unit -> unit
