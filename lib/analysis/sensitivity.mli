(** Certified sensitivity analysis: guaranteed enclosures of the
    derivatives of stage delay mean/sigma — and of the pipeline's
    Gaussian yield through the Clark max — with respect to one sizing
    knob (a gate's size, or its Vth-driven delay factor), over a
    declared box of the design space.

    The domain is forward-mode interval AD: every quantity carries a
    {e dual} [(v, d)] of intervals, [v] enclosing the quantity's value
    and [d] enclosing its derivative with respect to the knob, for
    {e every} design in the box.  Operations mirror the concrete timing
    model operation by operation ({!Spv_circuit.Sta.run},
    {!Spv_circuit.Ssta.analyse_stage}, {!Spv_core.Clark.max_n},
    {!Spv_stats.Special.big_phi}/[upper_tail]), so on a degenerate
    (point) box the value side reproduces the concrete floats bit for
    bit and on a real box both sides are sound by construction.

    Max junctions are where derivative soundness is earned: when the
    competing arrival enclosures are strictly disjoint over the box the
    dominating operand is propagated exactly; when they overlap, the
    traced critical path may switch inside the box, the competing
    accumulations are hulled, and the result is {e decertified} — its
    [deriv] is reported as the full line, which is trivially sound.
    The same discipline covers the Clark fold order (sorted by stage
    mean) and the Clark degenerate branches.  A {!enclosure} with
    [certified = true] therefore guarantees: the quantity is a smooth
    function of the knob over the whole box, [deriv] encloses its
    derivative everywhere in the box, and hence every central finite
    difference with a stencil inside the box lies in [deriv] (mean
    value theorem).  Monotone-sign certificates ({!monotone_sign}) and
    the analyzer's sensitivity pass ({!Dominance}) are read directly
    off certified enclosures; the global sizer's yield skip reads
    {!yield_upper_bound_over_box}. *)

(** Interval duals — exposed for tests. *)
module Dual : sig
  type t = private { v : Interval.t; d : Interval.t }

  exception Unbounded of string
  (** Raised when an operation cannot bound the result (division by an
      interval containing zero, square root pinned at zero).  Callers
      of the pass never see it: {!stage} and the yield entry points
      catch it and return decertified enclosures. *)

  val make : v:Interval.t -> d:Interval.t -> t
  val const : float -> t
  (** Point value, zero derivative. *)

  val var : Interval.t -> t
  (** The differentiated knob itself: value [box], derivative 1. *)

  val v : t -> Interval.t
  val d : t -> Interval.t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val scale : t -> float -> t
  (** Multiply by a finite constant (either sign). *)

  val shift : t -> float -> t
  (** Add a finite constant. *)

  val neg : t -> t
  val sqrt_ : t -> t
  val relu : t -> t
  (** [Float.max x 0.0] — continuous clamp; the derivative hulls the
      two branch derivatives when the value interval straddles 0. *)

  val clamp_pm1 : t -> t
  (** [Float.max (-1.) (Float.min 1. x)] — the correlation clamp. *)

  val big_phi : t -> t
  val upper_tail : t -> t
  val hull : t -> t -> t
end

(** The differentiated knob, identified by a node id of the stage's
    netlist.  [Size] is the gate's drive strength (the eq. 10-13
    design variable); [Factor] is the gate's multiplicative delay
    factor as applied by {!Spv_circuit.Sta.run_with_factors} — the
    linearised Vth knob: [factor = 1 + s_vth dVth], so a derivative
    with respect to [Factor] times [s_vth] is the Vth sensitivity. *)
type param = Size of int | Factor of int

type enclosure = {
  value : Interval.t;  (** encloses the quantity over the whole box *)
  deriv : Interval.t;
      (** encloses d(quantity)/d(knob) over the whole box; the full
          line when not certified *)
  certified : bool;
      (** true when the quantity is provably smooth in the knob over
          the box, so [deriv] contains every central finite difference
          with a stencil inside the box *)
}

type stage_sens = {
  s_param : param;
  s_box : Interval.t;  (** the knob's declared range *)
  s_nominal : enclosure;  (** nominal stage delay ({!Spv_circuit.Sta.run}) *)
  s_mu : enclosure;  (** SSTA total nominal (adds the flip-flop) *)
  s_sigma : enclosure;  (** SSTA total sigma (inter/sys/rand + FF) *)
}

val stage :
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Spv_circuit.Netlist.t -> param:param -> box:Interval.t -> stage_sens
(** Stage-level pass: one {!Spv_circuit.Sta.forward} sweep of the
    netlist in interval duals, each gate folding its fanins from the
    first one.  [box] must contain the knob's current value (the
    gate's size for [Size], 1.0 for [Factor]); every other gate is
    held at its current size.  Raises [Invalid_argument] when the
    node is not a gate or the box misses the current value. *)

type sign = Increasing | Decreasing
(** Certified monotone direction of a quantity in the knob. *)

val monotone_sign : enclosure -> sign option
(** [Some _] exactly when the enclosure is certified and its
    derivative interval excludes zero. *)

(** Pipeline yield model being differentiated — must match the
    estimator whose result the caller reasons about. *)
type model = Clark | Independent_product

(** Memoised stage propagations keyed on
    [(stage, Engine.Ctx.stage_revision, param, box)]: a
    {!Spv_engine.Engine.Ctx.refresh_stage} (or [refresh_block], which
    delegates to it) bumps the stage's revision and thereby invalidates
    exactly that stage's entries. *)
module Cache : sig
  type t

  val create : unit -> t
  val hits : t -> int
  val misses : t -> int
end

val ctx_stage :
  ?cache:Cache.t -> Spv_engine.Engine.Ctx.t -> stage:int -> param:param ->
  box:Interval.t -> stage_sens
(** {!stage} on one stage of a gate-level engine context (its
    technology, flip-flop and output load), memoised through [cache]
    when given. *)

val ctx_yield :
  ?cache:Cache.t -> Spv_engine.Engine.Ctx.t -> model:model ->
  stage:int -> param:param -> box:Interval.t -> t_target:float -> enclosure
(** Derivative enclosure of the pipeline yield [P{delay <= t_target}]
    with respect to one knob of one stage, every other stage held at
    its cached moments.  [Clark] mirrors
    {!Spv_core.Pipeline.delay_distribution} (spatial correlations, the
    mean-sorted Clark fold) followed by the Gaussian CDF;
    [Independent_product] mirrors the per-stage CDF product.  The
    enclosure is decertified whenever the fold order, a Clark
    degenerate branch, or the stage's own critical path is not decided
    over the box.  Gate-level contexts only. *)

val yield_upper_bound_over_box :
  Spv_engine.Engine.Ctx.t -> model:model -> stage:int ->
  lo:float -> hi:float -> t_target:float -> float option
(** Certified upper bound on the pipeline yield over {e every} sizing
    of stage [stage] inside [\[lo, hi\]]^gates (other stages fixed at
    their cached moments), or [None] when no finite certified bound
    exists (undecided fold order, degenerate branches).  This is the
    global sizer's prune test: when the bound cannot beat the current
    yield, re-sizing the stage provably cannot be accepted. *)
