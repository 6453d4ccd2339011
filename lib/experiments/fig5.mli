(** Fig. 5: variability (sigma/mu) trends — (a) of a stage with logic
    depth, (b) of the pipeline delay with the number of stages, (c) of
    the pipeline delay when stages x depth is fixed at 120. *)

val panel_a :
  ?depths:int array -> unit -> float array * (string * float array) list
(** Normalised stage sigma/mu per depth for: only-random, intra+inter
    20 mV, intra+inter 40 mV, only-inter 40 mV.  Returns the depth axis
    and one labelled normalised series per setting. *)

val panel_c :
  ?total_levels:int -> ?stage_counts:int array -> unit ->
  float array * (string * float array) list
(** Raw (un-normalised) pipeline sigma/mu per stage count with
    stages x depth = [total_levels] (default 120), for inter-die Vth
    sigma 0, 20, 40 mV. *)

val run : unit -> unit
