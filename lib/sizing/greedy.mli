(** TILOS-style greedy sensitivity sizing — the classic baseline the
    Lagrangian sizer is measured against.

    Starting from minimum sizes, repeatedly upsize the gate on the
    statistical critical path with the best delay-per-area sensitivity
    (evaluated by trial: bump the gate, re-run timing) until the target
    [mu + z sigma <= t_target] is met or no move helps.  Monotone and
    robust, and competitive on loose targets — but greedy: single-gate
    moves cannot make the coordinated multi-gate changes aggressive
    targets need, so it stalls (converged = false) where the Lagrangian
    relaxation still closes the constraint. *)

type options = {
  min_size : float;
  max_size : float;
  step : float;  (** multiplicative upsize factor per move (default 1.3) *)
  max_moves : int;  (** default 2000 *)
}

val default_options : options

type report = {
  moves : int;
  converged : bool;
  achieved : Spv_process.Gate_delay.t;
  stat_delay : float;
  area : float;
}

val size_stage :
  ?options:options -> ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Spv_circuit.Netlist.t -> t_target:float -> z:float -> report
(** Size in place (resets to minimum sizes first, like the LR sizer).

    Each sweep evaluates every candidate move by a trial SSTA, in
    candidate order, and accepts the maximum-gain improving move.  The
    report passes the {!Certify_hook} exit-criterion check before it
    is returned. *)

val compare_with_lagrangian :
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t -> Spv_circuit.Netlist.t ->
  t_target:float -> z:float -> report * Lagrangian.report
(** Run both sizers on copies of the same problem (the netlist is left
    with the Lagrangian result, matching that sizer's contract). *)
