(** Fig. 4: permissible (mu, sigma) design region of a pipe stage for a
    target delay and yield — the relaxed bound (eq. 11), equality
    bounds for two stage counts (eq. 12) and the realizable
    inverter-chain corridor (eq. 13). *)

val compute :
  ?t_target:float -> ?yield:float -> ?stage_counts:int list -> unit ->
  Spv_core.Design_space.curves
(** The Fig. 4 curves; defaults: 120 ps target, 80% yield, 4 and 12
    stages. *)

val run : unit -> unit
