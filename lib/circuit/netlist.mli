(** Gate-level netlists.

    A netlist is a DAG of primary inputs and cells.  Nodes are stored
    in topological order by construction (a gate may only reference
    lower node ids), which keeps every traversal a single array scan.
    Drive sizes are mutable so the sizing optimiser can update them in
    place without rebuilding fanout structure.

    The netlist also owns the timing view every propagation pass
    ({!Sta.forward}, {!Sta.backward}) walks: fanins and fanouts in
    compressed-sparse-row (CSR) form, and the capacitive load of every
    node under the current sizes. *)

type node =
  | Primary_input of string
  | Gate of { kind : Cell.kind; fanin : int array }

type t

val make :
  name:string -> nodes:node array -> outputs:int array -> sizes:float array -> t
(** Validates: every gate's fanins reference strictly lower ids, fanin
    counts match cell arity, outputs are valid ids, sizes are positive
    and as many as nodes.  Raises [Invalid_argument] on violation.
    Prefer {!Builder} for construction. *)

val name : t -> string
val n_nodes : t -> int
val node : t -> int -> node
val outputs : t -> int array
val is_output : t -> int -> bool

(** {2 Timing view}

    Compressed-sparse-row (CSR) adjacency.  Node [i]'s fanins are
    [fanin_ids.(fanin_start.(i)) .. fanin_ids.(fanin_start.(i+1) - 1)]
    in pin order (shared arrays: never mutate them).  Its fanouts are
    kept in descending consumer id, a consumer reading it on several
    pins listed once per pin (adjacently), so load sums charge every
    pin. *)

val fanin_start : t -> int array
val fanin_ids : t -> int array
val n_fanouts : t -> int -> int
val iter_fanouts : t -> int -> (int -> unit) -> unit
val exists_fanout : t -> int -> (int -> bool) -> bool

val output_load : float
(** Load on every primary output (an FO4-ish flip-flop input), in
    minimum-inverter-cap units. *)

val fold_load :
  t -> int -> cap:('a -> int -> 'a) -> po:('a -> float -> 'a) -> 'a -> 'a
(** The load formula of node [i] over any domain: [cap] folded over
    its fanout consumers in CSR order, then [po] with {!output_load}
    (0.0 unless [i] is a primary output). *)

val loads : t -> float array
(** Per-node loads under the current sizes ({!fold_load} of the
    consumers' {!Cell.input_cap}s from 0.0), built on the first query
    and kept until a {!set_size} or {!restore_sizes} drops them; a
    {!copy} shares them.  Never mutated, so every entry is a
    from-scratch fold.  Do not mutate the array. *)

val load : t -> int -> float
(** One entry of {!loads}, folded on the spot when they are not built
    (a sizer reading loads between resizes does not rebuild them). *)

val is_gate : t -> int -> bool
val gate_ids : t -> int array
val input_ids : t -> int array
val n_gates : t -> int

val size : t -> int -> float
val set_size : t -> int -> float -> unit
(** Raises [Invalid_argument] for a non-gate node or non-positive size.
    Drops the built {!loads}. *)

val sizes_snapshot : t -> float array
val restore_sizes : t -> float array -> unit

val area : t -> float
(** Sum over gates of [Cell.area_per_size * size]. *)

val copy : t -> t
(** Deep copy (sizes independent). *)

val eval : t -> inputs:bool array -> bool array
(** Functional simulation: returns the value at every node given
    primary-input values in id order of [input_ids]. *)

val pp_stats : Format.formatter -> t -> unit
