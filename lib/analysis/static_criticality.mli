(** Static criticality: which gates can {e ever} set a stage's delay
    under the interval bounds.

    Soundness argument (per stage, all worlds restricted to the
    [±k sigma] box):

    - [through_hi g] = hi-corner arrival at [g] plus the hi-corner
      longest gate-path from [g] to any primary output.  Both terms are
      monotone in the per-gate factors, so [through_hi g] dominates the
      length of the longest output-bound path through [g] in every
      in-box world;
    - [lo_delay] = the all-lo-corner STA delay, a lower bound on the
      stage delay in every in-box world;
    - a gate with [through_hi g < lo_delay] is therefore never on a
      critical path in any in-box world ([active] is [false] for it).

    {!Cones} clamps its gate-criticality upper bounds with [active].
    At the default k = 6 the all-lo corner factors go negative, so
    [lo_delay] is negative on every built-in circuit and no gate is
    proven inactive ([prunable_fraction] = 0); smaller [k] on deep,
    imbalanced netlists does prove gates inactive. *)

type t = {
  levels : int array;  (** logic level per node *)
  lo_sta : Spv_circuit.Sta.result;  (** all-lo-corner STA *)
  hi_sta : Spv_circuit.Sta.result;  (** all-hi-corner STA *)
  through_hi : float array;
      (** per node: upper bound on the longest output-bound path through
          it; [neg_infinity] for nodes that reach no output *)
  lo_delay : float;
  active : bool array;  (** per node; inputs always active *)
  n_gates : int;
  n_active_gates : int;
}

val analyse : ?k:float -> Spv_process.Tech.t -> Spv_circuit.Netlist.t -> t
(** Levelise, run the two corner STAs, extract the possibly-critical
    cone ({!Spv_circuit.Sta.down} over the hi corner gives the
    remaining path).  [k] defaults to 6.0.  Raises [Invalid_argument]
    on invalid [k]. *)

val cone : t -> int list
(** Ids of the possibly-critical gates, ascending. *)

val prunable_fraction : t -> float
(** Fraction of gates proven never-critical (0 when the netlist has no
    gates). *)

val findings : ?stage:int -> t -> Report.finding list
(** Criticality findings ([pass = "criticality"]): cone size, prunable
    fraction, depth, corner delays. *)
