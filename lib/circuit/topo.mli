(** Levelisation and depth measures over netlists (ids are already in
    topological order by construction). *)

val levels : Netlist.t -> int array
(** Level per node: primary inputs are 0, a gate is
    1 + max level of its fanins. *)

val depth : Netlist.t -> int
(** Maximum logic level over all nodes (the paper's "logic depth"). *)
