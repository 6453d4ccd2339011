(** Differential testing oracle over the estimator stack.

    Runs one (circuit pipeline, process scenario, seed) triple through
    every estimator the engine offers plus the static analysis stack
    ({!Spv_analysis.Bounds}, {!Spv_analysis.Affine_sta},
    {!Spv_analysis.Certify}) and checks the cross-cutting invariants
    that must hold for {e any} lint-legal input:

    - {b Agreement} — the paper's Clark-vs-MC correspondence (Figs.
      4–5): every sampling estimator agrees with plain Monte-Carlo
      within [z] combined standard errors plus the documented absolute
      allowance for Clark-family closed forms.  Each estimator is held
      to its {e documented} contract: the importance estimator is
      rare-event machinery, so it is checked only on tail-side targets
      ([>= mu + 2 sigma] and the [mu + 4 sigma] deep tail, where plain
      MC is blind) — two contract limits the fuzzer itself surfaced
      (importance at [t = mu] returning ~0.998 against a true 0.525)
      are documented in DESIGN.md.
    - {b Envelope} — every estimate lies inside the Fréchet /
      affine yield envelopes ({!Spv_analysis.Bounds.check},
      {!Spv_analysis.Affine_sta.check}); the importance deep-tail loss
      lies inside the union-bound loss envelope, while Clark-family
      closed forms are only held to its ceiling there (moment-matching
      the max can shrink [sigma_T] below a dominant stage's sigma, so
      their tail loss legitimately undershoots the Fréchet floor).
    - {b Containment} — model-level MVN delay samples and gate-level
      Monte-Carlo delays (linearised and exact alpha-power) fall
      inside the interval/affine delay enclosures.
    - {b Nesting} — the affine enclosures (delay, mean, per-stage,
      yield bounds) are contained in their interval counterparts.
    - {b Certificate} — {!Spv_analysis.Certify} soundness: [Proved]
      implies MC confirms the yield at matched confidence; [Refuted]
      implies the counterexample stage's marginal reproduces the
      refutation and MC respects the Fréchet upper bound.
    - {b Replay} — bit-identical results across [jobs] and across
      repeated runs at the same [(seed, shards)].
    - {b Hier} — the hierarchical (block-macro) model agrees with the
      flat model within the estimate's reported
      {!Spv_engine.Engine.estimate.hier_bound} on every fuzzed
      netlist: exactly at the bound for the closed forms (the bound
      {e is} the model gap), plus combined sampling noise for
      Monte-Carlo on the macro model's MVN.
    - {b Deriv} — certified {!Spv_analysis.Sensitivity} enclosures are
      sound against the concrete model: the value interval contains
      the concrete stage moments (and Clark yield), and every central
      finite difference with a stencil inside the declared size box
      lies in the derivative interval.
    - {b Escape} — any exception escaping one of the checks on
      lint-legal input is itself a violation (the typed error boundary
      must hold).

    A violated invariant is a {e definite} counterexample, reported as
    {!Errors.Oracle_violation} (exit code 9) by the CLI.  Violations
    are delta-debug shrunk ({!shrink}) and can be filed as
    self-contained repro cases ({!file_finding}) with the generator
    seed embedded. *)

module Fuzz = Spv_circuit.Fuzz

(** {1 Tolerances} *)

type tolerances = {
  clark_abs : float;
      (** absolute allowance for Clark-family closed forms vs MC
          (matches {!Spv_analysis.Bounds.check}'s 0.02 default) *)
  agree_z : float;
      (** the [z] multiplier on combined standard errors in every
          sampling-noise allowance (default 5.0) *)
  cert_slack : float;
      (** extra absolute slack when MC confirms a [Proved]
          certificate (default 0.005) *)
}

val default_tolerances : tolerances

(** {1 Invariants} *)

type invariant =
  | Agreement
  | Envelope
  | Containment
  | Nesting
  | Certificate
  | Replay
  | Hier
  | Deriv
  | Escape

val invariant_name : invariant -> string
val invariant_of_string : string -> invariant option
val all_invariants : invariant list

type violation = { invariant : invariant; detail : string }

val violation_to_error : violation -> Errors.t

(** {1 Checking} *)

val check_ctx :
  ?tolerances:tolerances -> ?invariants:invariant list ->
  ?macro_table:Spv_circuit.Macro.Table.t ->
  Spv_engine.Engine.Ctx.t -> seed:int -> int * violation list
(** Run the selected invariants (default: all) against one context.
    Returns [(checks_run, violations)].  [seed] drives every sampling
    estimator; equal [(ctx, seed)] give bit-identical outcomes
    ([macro_table], when given, shares Hier's macro characterisations
    across calls — a pure cache, so outcomes are unchanged; its
    hit/miss counters feed the fuzz campaign's [--timings] report).
    Exceptions escaping any individual check are caught and recorded
    as [Escape] violations — [check_ctx] itself only raises on
    unusable arguments (e.g. a moments-only context). *)

(** {1 Fuzz cases}

    A case is fully determined by [(gen_seed, max_gates)]: circuits,
    mutations and the process scenario are all re-derived from
    splitmix64 streams split off the seed, which is what makes a
    printed seed a complete repro. *)

type case = { gen_seed : int; max_gates : int }

type materialised = {
  circuits : Spv_circuit.Netlist.t array;
  process : Fuzz.process;
  n_mutations : int;
}

val materialise : case -> materialised
(** Deterministically rebuild the fuzzed pipeline: generate, apply
    0–3 mutations, draw the process scenario. *)

val ctx_of :
  Spv_circuit.Netlist.t array -> Fuzz.process -> Spv_engine.Engine.Ctx.t
(** Engine context for a (circuits, process) pair over the default
    [bptm70] technology. *)

type outcome = {
  case : case;
  checks_run : int;
  violations : violation list;
}

val run_case :
  ?tolerances:tolerances -> ?invariants:invariant list ->
  ?macro_table:Spv_circuit.Macro.Table.t -> ?materialised:materialised ->
  check_seed:int -> case -> outcome
(** {!materialise} + {!ctx_of} + {!check_ctx}.  [materialised], when
    given, must be [materialise case] (a caller that already holds it
    saves the rebuild).  Exceptions during materialisation/context
    build are recorded as [Escape] violations, never raised. *)

(** {1 Shrinking} *)

val shrink :
  ?tolerances:tolerances -> ?max_attempts:int -> invariant:invariant ->
  check_seed:int -> Spv_circuit.Netlist.t array -> Fuzz.process ->
  Spv_circuit.Netlist.t array * Fuzz.process * int
(** Delta-debug a violating (circuits, process) pair: remove stages,
    then gates (highest id first, fanouts rewired to the gate's first
    fanin), then collapse fanins, then drop process overrides —
    re-checking the same invariant after every candidate step and
    keeping only steps that still violate.  Deterministic; at most
    [max_attempts] (default 300) re-checks.  Returns the shrunk pair
    and the number of accepted shrink steps. *)

(** {1 Corpus filing} *)

type finding = {
  found : case;
  check_seed : int;
  violation : violation;
  circuits : Spv_circuit.Netlist.t array;  (** shrunk *)
  process : Fuzz.process;  (** shrunk *)
  shrink_steps : int;
}

val finding_to_string : finding -> string
(** Self-contained text form: header lines ([invariant], [gen_seed],
    [max_gates], [check_seed], [process], [shrink_steps], [detail])
    followed by each stage's `.bench` text.  Round-trips through
    {!finding_of_string} to bit-identical circuits (sizes are on the
    fuzzer's 1/4 grid). *)

val finding_of_string : string -> (finding, string) result

val file_finding : dir:string -> finding -> string
(** Write the finding into the fault-corpus directory (created if
    missing) as [fuzz-<invariant>-seed<gen_seed>.repro]; returns the
    path. *)
