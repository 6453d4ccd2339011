(** Dominance certificates over the sizing design space, and the
    analyzer's ["sensitivity"] pass.

    The global sizer's stage skip (registered through
    {!Spv_sizing.Sens_hook.register_yield_skip}) evaluates
    {!Sensitivity.yield_upper_bound_over_box} over the whole sizing
    box of the probed stage: when even the certified upper bound
    cannot clear the acceptance threshold, the probe is provably
    rejected and is skipped.  The decision is {e certified}, so
    {!Spv_sizing.Global_opt.ensure_yield}'s result is byte-identical
    with the skip on or off. *)

val yield_skip : Spv_sizing.Sens_hook.yield_skip_env -> bool
(** The global-sizer probe skip test; exposed for tests. *)

val install_sizing_prune : unit -> unit
(** Register {!yield_skip} with {!Spv_sizing.Sens_hook}. *)

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
