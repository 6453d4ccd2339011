(** Yield-skip hook for the global sizer.

    Mirrors {!Certify_hook}: the analysis layer registers a function
    pointer here ([Spv_analysis.Dominance.install_sizing_prune]), so
    sizing never depends on analysis.  {!Global_opt.ensure_yield}
    consults the {e yield-skip} test before each stage tightening
    probe: when a certified yield upper bound over the whole sizing
    box proves the probe cannot be accepted, the optimiser skips the
    snapshot / re-size / refresh / restore round trip.

    The test is {e result-transparent}: it only skips probes the
    optimiser would have rejected, so reports are byte-identical with
    the hook installed or not.  The {!stats} counters let benchmarks
    observe how many probes it saved without perturbing the reports. *)

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

val register_yield_skip : (yield_skip_env -> bool) -> unit
(** [true] means the stage probe is certified to be rejected. *)

val yield_skip : unit -> (yield_skip_env -> bool) option
(** [None] when no provider is registered or the skip is disabled. *)

val set_enabled : bool -> unit
(** Gate the provider without unregistering it (the skip-identity test
    compares runs with it on and off).  Default: enabled. *)

val is_enabled : unit -> bool

(** Work counters, reset with {!reset_stats}.  Kept here — not in the
    sizer reports — so the skip cannot perturb report equality. *)
type stats = {
  mutable probes_run : int;  (** global-sizer stage probes run *)
  mutable probes_skipped : int;  (** stage probes skipped *)
}

val stats : stats
val reset_stats : unit -> unit
