(** Dominance certificates over the sizing design space, and the
    analyzer's ["sensitivity"] pass.

    Everything here is read off {!Sensitivity} enclosures, so every
    prune decision is {e certified}: a move is dropped only when its
    enclosure proves the concrete sizer would reject it, and the
    sizer's accepted solution is byte-identical with pruning on or off
    (asserted when the engine's debug checks are on, [SPV_DEBUG_BOUNDS]).

    Greedy move pruning (registered through
    {!Spv_sizing.Sens_hook.register_move_prune}) uses three rules, for
    a candidate upsize of one gate from [s] to [s'] with
    [delta = deriv * (s' - s)] the certified enclosure of the
    statistical-delay change:

    - {e no-op}: the stat-delay value enclosure over [\[s, s'\]] has
      width zero — the move provably does not change the objective, so
      the sizer's strict-improvement test rejects it;
    - {e harmful}: [lo delta >= margin] — the move provably increases
      the objective;
    - {e dominated}: some kept move [j]'s certified cost-normalised
      gain lower bound is positive and strictly exceeds move [i]'s
      gain upper bound (gain = [-delta / max darea 1e-9], the sizer's
      own figure of merit) — [i] can never be the accepted
      maximum-gain move while [j] is present.

    The margin ([1e-5] ps of stat delay, scaled by the move's area
    denominator for gains) keeps every comparison strictly clear of
    floating-point noise between the interval mirror and the concrete
    evaluation.

    The global sizer's stage skip (registered through
    {!Spv_sizing.Sens_hook.register_yield_skip}) evaluates
    {!Sensitivity.yield_upper_bound_over_box} over the whole sizing
    box of the probed stage: when even the certified upper bound
    cannot clear the acceptance threshold, the probe is provably
    rejected and is skipped. *)

val prune_moves :
  Spv_sizing.Sens_hook.prune_env -> Spv_sizing.Sens_hook.move list ->
  bool array
(** The greedy move pruner; exposed for tests. [true] = certified
    never-accepted. *)

val yield_skip : Spv_sizing.Sens_hook.yield_skip_env -> bool
(** The global-sizer probe skip test; exposed for tests. *)

val install_sizing_prune : unit -> unit
(** Register {!prune_moves} and {!yield_skip} with
    {!Spv_sizing.Sens_hook}. *)

(** {2 The analyzer pass} *)

type gate_cert = {
  gc_stage : int;
  gc_node : int;
  gc_size : float;  (** current size (box centre up to the factor) *)
  gc_box : Interval.t;  (** declared size box for the certificates *)
  gc_mu : Sensitivity.enclosure;  (** d(stage mu)/d(size) *)
  gc_sigma : Sensitivity.enclosure;  (** d(stage sigma)/d(size) *)
  gc_yield : Sensitivity.enclosure option;
      (** d(pipeline Clark yield)/d(size), with a [t_target] *)
}

type t = { gate_level : bool; certs : gate_cert list }

val analyse :
  ?k:int -> ?t_target:float -> Spv_engine.Engine.Ctx.t -> t
(** Certify up to [k] (default 4) critical-path gates per stage over
    the relative size box [\[size / 1.3, size * 1.3\]] (1.3 is the
    greedy sizer's step).  Moments-only contexts yield
    [gate_level = false] and no certificates. *)

val findings : t -> Report.finding list
(** The ["sensitivity"] pass: one finding per certified knob (with the
    derivative enclosures as data) plus a summary finding; a [Warn]
    on moments-only contexts. *)
