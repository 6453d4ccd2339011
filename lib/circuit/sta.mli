(** Deterministic static timing analysis.

    Gate delay follows the logical-effort model
    [tau * (p + load / size)], with [load] the sum of fanout input
    capacitances (plus [output_load] for primary-output drivers, in
    minimum-inverter-cap units).  Arrival times propagate in topological
    order; the critical path is traced back from the latest output. *)

type result = {
  arrival : float array;  (** per node, ps; primary inputs are 0 *)
  gate_delays : float array;  (** per node, ps; 0 for inputs *)
  delay : float;  (** max arrival over primary outputs *)
  critical_output : int;
  critical_path : int list;  (** gate ids, input side first *)
}

val loads : Netlist.t -> output_load:float -> float array
(** Capacitive load per node under current sizes (gate input caps). *)

val run : ?output_load:float -> Spv_process.Tech.t -> Netlist.t -> result
(** Nominal timing. [output_load] defaults to 4.0 (an FO4-ish
    flip-flop input). *)

val run_with_factors :
  ?output_load:float -> Spv_process.Tech.t -> Netlist.t ->
  factors:float array -> result
(** Timing with a per-node multiplicative delay factor (Monte-Carlo
    variation samples). [factors] must have one entry per node; entries
    for input nodes are ignored. *)

val path_delay : result -> int list -> float
(** Sum of gate delays along a node list. *)

type min_result = {
  min_arrival : float array;  (** per node: earliest possible arrival *)
  min_delay : float;  (** min over primary outputs of their earliest arrival *)
  shortest_output : int;
  shortest_path : int list;  (** gate ids of the fastest input-to-output path *)
}

val run_min : ?output_load:float -> Spv_process.Tech.t -> Netlist.t -> min_result
(** Shortest-path (early-mode) timing: the race-path delay that a hold
    check compares against the clk-to-Q + hold window. *)
