(** Random-vector functional equivalence checking.

    Sizing, dual-Vth assignment and netlist round-trips must never
    change a circuit's logic function; this is the cheap guard.  Two
    netlists are compared on their primary-output values over random
    input vectors (inputs are matched by label, outputs by position).
    Random simulation is a probabilistic check, not a proof — but a
    single differing vector is a definite counterexample. *)

val compatible : Spv_circuit.Netlist.t -> Spv_circuit.Netlist.t -> bool
(** Same input labels (as sets) and the same output count. *)

val check :
  ?vectors:int -> Spv_circuit.Netlist.t -> Spv_circuit.Netlist.t ->
  Spv_stats.Rng.t ->
  (unit, bool array) result
(** [Ok ()] if all [vectors] (default 256) random input assignments
    agree on every output; [Error v] returns the first distinguishing
    input vector (in the first netlist's input order).  Raises
    [Invalid_argument] if the interfaces are incompatible. *)
