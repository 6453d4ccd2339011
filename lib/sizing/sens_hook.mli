(** Sensitivity-pruning hook for the sizers.

    Mirrors {!Certify_hook}: the analysis layer registers function
    pointers here ([Spv_analysis.Dominance.install_sizing_prune]), so
    sizing never depends on analysis.  Two providers:

    - a {e move pruner} consulted by {!Greedy.size_stage} before each
      candidate sweep — it may mark moves whose certified sensitivity
      enclosure proves they can never be the accepted move, and the
      sizer then skips their trial SSTA evaluations;
    - a {e yield-skip} test consulted by {!Global_opt.ensure_yield}
      before each stage tightening probe — it may prove, from a
      certified yield upper bound over the whole sizing box, that the
      probe cannot be accepted, and the optimiser then skips the
      snapshot / re-size / refresh / restore round trip.

    Both providers are required to be {e result-transparent}: pruning
    only ever skips work the concrete sizer would have rejected, so
    reports are byte-identical with the hook installed or not.  When
    the engine's debug checks are on ([SPV_DEBUG_BOUNDS] or
    [Spv_engine.Engine.set_debug_checks true]), {!Greedy.size_stage}
    re-evaluates the full unpruned move set after each sweep and
    raises [Failure] if the accepted move differs.

    The {!stats} counters let benchmarks and CI observe how much work
    pruning saved without perturbing the sizer reports themselves. *)

type move = {
  mv_node : int;  (** the gate being upsized *)
  mv_from : float;  (** current size *)
  mv_to : float;  (** proposed size (> [mv_from]) *)
  mv_darea : float;  (** area cost of the move *)
}

type prune_env = {
  pe_tech : Spv_process.Tech.t;
  pe_net : Spv_circuit.Netlist.t;
  pe_ff : Spv_process.Flipflop.t option;
  pe_z : float;  (** the sizer's statistical-delay quantile *)
}

type yield_skip_env = {
  ye_ctx : Spv_engine.Engine.Ctx.t;
  ye_stage : int;
  ye_t_target : float;
  ye_current : float;
      (** pipeline yield (eq. 8 independent product) the probe must
          strictly beat *)
  ye_min_size : float;
  ye_max_size : float;
}

val register_move_prune : (prune_env -> move list -> bool array) -> unit
(** The returned array is parallel to the move list; [true] means the
    move is certified to never be accepted and may be skipped. *)

val register_yield_skip : (yield_skip_env -> bool) -> unit
(** [true] means the stage probe is certified to be rejected. *)

val move_prune : unit -> (prune_env -> move list -> bool array) option
val yield_skip : unit -> (yield_skip_env -> bool) option
(** [None] when no provider is registered or pruning is disabled. *)

val set_enabled : bool -> unit
(** Gate both providers without unregistering them (benchmarks toggle
    this to compare pruned vs unpruned runs).  Default: enabled. *)

val is_enabled : unit -> bool

(** Work counters, reset with {!reset_stats}.  Kept here — not in the
    sizer reports — so pruning cannot perturb report equality. *)
type stats = {
  mutable moves_evaluated : int;  (** trial SSTA evaluations run *)
  mutable moves_pruned : int;  (** trial evaluations skipped *)
  mutable probes_run : int;  (** global-sizer stage probes run *)
  mutable probes_skipped : int;  (** stage probes skipped *)
}

val stats : stats
val reset_stats : unit -> unit
