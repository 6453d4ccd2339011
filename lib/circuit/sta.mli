(** Deterministic static timing analysis over the one propagation core
    every gate-level pass is written on.

    Gate delay follows the logical-effort model
    [tau * (p + load / size)], with [load] the netlist's own
    {!Netlist.loads}.  Arrival times propagate in topological order;
    the critical path is traced back from the latest output. *)

(** A value domain for {!forward}.  At each gate the fanin values are
    folded left in pin order: [start] on the first fanin's value,
    [join] with each further one, then [gate i].  A fold from a
    constant [z] writes [start a = join z a]; one from the first fanin
    writes [start a = a].  Each instance keeps its fold start and
    order: [Affine.max2] is not associative. *)
module type DOMAIN = sig
  type t

  val input : int -> t
  val start : t -> t
  val join : t -> t -> t
  val gate : int -> t -> t
end

val forward : (module DOMAIN with type t = 'a) -> Netlist.t -> 'a array
(** Nodes in id order; every fanin edge is visited once, in CSR
    ({!Netlist.fanin_ids}) order. *)

(** A value domain for {!backward}: node [i] is [seed i] folded with
    [join acc g v] over each fanout entry's consumer [g] (value [v]) in
    CSR order, then [finish i]. *)
module type BACKWARD = sig
  type t

  val seed : int -> t
  val join : t -> int -> t -> t
  val finish : int -> t -> t
end

val backward : (module BACKWARD with type t = 'a) -> Netlist.t -> 'a array
(** Nodes in descending id, so consumers are final before drivers. *)

val down : Netlist.t -> float array -> float array
(** [down net gate_delays]: per node, the longest [gate_delays] sum
    over a gate path from the node (exclusive) to a primary output,
    [neg_infinity] where none.  Max is exact, so
    [gate_delays.(g) +. down.(g)] is the longest output-bound path
    through [g] bit for bit. *)

type result = {
  arrival : float array;  (** per node, ps; primary inputs are 0 *)
  gate_delays : float array;  (** per node, ps; 0 for inputs *)
  delay : float;  (** max (min for {!run_min}) arrival over outputs *)
  critical_output : int;
  critical_path : int list;  (** gate ids, input side first *)
}

val gate_delay : Spv_process.Tech.t -> Netlist.t -> int -> float
(** Nominal delay of one node (0 for a primary input). *)

val run : Spv_process.Tech.t -> Netlist.t -> result
(** Nominal timing: {!forward} over floats, max folded from 0.0. *)

val run_with_factors :
  Spv_process.Tech.t -> Netlist.t -> factors:float array -> result
(** Timing with a per-node multiplicative delay factor (Monte-Carlo
    variation samples). [factors] must have one entry per node; entries
    for input nodes are ignored. *)

val late_delay :
  Netlist.t -> delays:Float.Array.t -> arrival:Float.Array.t -> float
(** The float fast path of {!run_with_factors} for Monte-Carlo trials:
    [late_delay net ~delays ~arrival] is the [delay] field of the
    result whose per-node gate delays are [delays], bit for bit.  It
    folds each gate's fanins as {!run} does ([Float.max 0.0] on the
    first, then the others in CSR order), writes the arrivals into
    [arrival], traces no path and allocates nothing but its result.
    Both arrays need at least [n_nodes net] entries; entries of
    [delays] at inputs are ignored. *)

val run_min : Spv_process.Tech.t -> Netlist.t -> result
(** Shortest-path (early-mode) timing, min folded from +inf: [arrival]
    is each node's earliest arrival, [delay] the min over primary
    outputs and [critical_path] the fastest input-to-output path — the
    race path a hold check compares against the clk-to-Q + hold
    window. *)
