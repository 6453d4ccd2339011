(** Fault-injection corpus: systematic malformed inputs driven through
    the {!Spv_robust.Checked} entry points and {!Spv_robust.Checked.protect}.

    Each case records what a hardened library must do with it: return a
    typed {!Errors.t} ([Expect_error]), succeed with a finite,
    documented-fallback value ([Expect_ok]), or either
    ([Expect_either]).  An uncaught exception or a non-finite result is
    a failure regardless of expectation — that is the invariant the
    test suite asserts. *)

module Errors = Spv_robust.Errors

type expectation = Expect_error | Expect_ok | Expect_either

type case = {
  name : string;
  expect : expectation;
  run : unit -> (string, Errors.t) result;
      (** [Ok summary] where all reported numbers have been
          finiteness-checked; [Error] is a typed failure. *)
}

type outcome =
  | Ok_value of string
  | Typed_error of Errors.t
  | Escaped of string  (** an exception leaked through [Checked] *)

type verdict = Pass | Fail of string

val corpus : unit -> case list
(** The full corpus (81 cases): malformed .bench text, I/O faults,
    degenerate stage moments and correlation coefficients, bad
    Monte-Carlo budgets, degenerate samples, sizing faults, healthy
    controls, plus hand-minimized adversarial inputs for the
    differential {!Oracle} (near-degenerate correlation, zero-sigma
    gates, single-gate stages, cap-riding reconvergence, lint-extreme
    process overrides) — each a deterministic seed-only repro that
    must pass every oracle invariant. *)

val run_case : case -> outcome

val verdict : case -> outcome -> verdict
(** [Escaped] always fails; [Ok_value] fails an [Expect_error] case;
    [Typed_error] fails an [Expect_ok] case. *)

val run_all : unit -> (case * outcome * verdict) list

val failures :
  (case * outcome * verdict) list -> (case * outcome * string) list
