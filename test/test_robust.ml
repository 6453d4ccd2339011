open Helpers
module Errors = Spv_robust.Errors
module Lint = Spv_robust.Lint
module Guard = Spv_robust.Guard
module Checked = Spv_robust.Checked
module M = Spv_stats.Matrix
module G = Spv_stats.Gaussian

(* ---- typed errors --------------------------------------------------- *)

let test_exit_codes_distinct () =
  let codes =
    List.map Errors.exit_code
      [
        Errors.io ~path:"f" "m";
        Errors.parse "m";
        Errors.lint [];
        Errors.numeric ~where:"w" "m";
        Errors.domain ~param:"p" "m";
        Errors.internal ~where:"w" "m";
      ]
  in
  Alcotest.(check (list int)) "documented codes" [ 2; 3; 4; 5; 6; 7 ] codes;
  List.iter (fun c -> Alcotest.(check bool) "non-zero" true (c <> 0)) codes

let test_error_messages_one_line () =
  let errs =
    [
      Errors.io ~path:"f.bench" "gone";
      Errors.parse ~path:"f.bench" ~line:3 "bad token";
      Errors.lint
        [ Errors.diagnostic ~code:"combinational-loop" ~line:2 "cycle" ];
      Errors.numeric ~where:"clark" "NaN";
      Errors.domain ~param:"rho" "out of range";
      Errors.internal ~where:"cli" "oops";
    ]
  in
  List.iter
    (fun e ->
      let s = Errors.to_string e in
      Alcotest.(check bool) "non-empty" true (String.length s > 0);
      Alcotest.(check bool) "single line" false (String.contains s '\n'))
    errs

(* ---- lint ------------------------------------------------------------ *)

let codes_of diags = List.map (fun d -> d.Errors.code) diags

let lint_text text = Lint.check_bench_text text |> Result.get_ok

let test_lint_loop () =
  let diags = lint_text "INPUT(a)\nx = INV(y)\ny = INV(x)\nOUTPUT(y)\n" in
  Alcotest.(check bool) "loop found" true
    (List.mem "combinational-loop" (codes_of (Lint.errors diags)))

let test_lint_multiple_driver () =
  let diags =
    lint_text "INPUT(a)\nn = INV(a)\nn = BUF(a)\nOUTPUT(n)\n"
  in
  Alcotest.(check bool) "multiple driver" true
    (List.mem "multiple-driver" (codes_of (Lint.errors diags)))

let test_lint_undefined_signal () =
  let diags = lint_text "INPUT(a)\ny = INV(zzz)\nOUTPUT(y)\n" in
  Alcotest.(check bool) "undefined" true
    (List.mem "undefined-signal" (codes_of (Lint.errors diags)))

let test_lint_empty_and_no_outputs () =
  Alcotest.(check bool) "empty" true
    (List.mem "empty-circuit" (codes_of (Lint.errors (lint_text ""))));
  let diags = lint_text "INPUT(a)\ny = INV(a)\n" in
  Alcotest.(check bool) "no outputs" true
    (List.mem "no-outputs" (codes_of (Lint.errors diags)))

let test_lint_zero_fanin () =
  let diags = lint_text "INPUT(a)\ny = AND()\nOUTPUT(y)\n" in
  Alcotest.(check bool) "zero fanin" true
    (List.mem "zero-fanin" (codes_of (Lint.errors diags)))

let test_lint_warnings_only () =
  (* Dangling definition and unused input are warnings, not errors. *)
  let diags =
    lint_text "INPUT(a)\nINPUT(b)\ny = INV(a)\ndead = BUF(a)\nOUTPUT(y)\n"
  in
  Alcotest.(check bool) "no errors" false (Lint.has_errors diags);
  let w = codes_of (Lint.warnings diags) in
  Alcotest.(check bool) "dangling" true (List.mem "dangling-signal" w);
  Alcotest.(check bool) "unused input" true (List.mem "unused-input" w)

let test_lint_line_numbers () =
  let diags = lint_text "INPUT(a)\ny = INV(a)\nz = INV(qq)\nOUTPUT(z)\n" in
  match Lint.errors diags with
  | [ d ] -> Alcotest.(check (option int)) "line" (Some 3) d.Errors.line
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

let test_checked_parse_reports_warnings () =
  let warnings = ref [] in
  let net =
    Checked.parse_bench_string
      ~on_warning:(fun w -> warnings := w :: !warnings)
      "INPUT(a)\nINPUT(b)\ny = INV(a)\nOUTPUT(y)\n"
    |> Result.get_ok
  in
  Alcotest.(check int) "gates" 1 (Spv_circuit.Netlist.n_gates net);
  Alcotest.(check bool) "warned" true (!warnings <> [])

(* ---- guards ---------------------------------------------------------- *)

let test_clamp_rho () =
  (match Guard.clamp_rho ~where:"t" 0.7 with
  | Ok (r, clamped) ->
      check_float "unchanged" 0.7 r;
      Alcotest.(check bool) "not clamped" false clamped
  | Error _ -> Alcotest.fail "in-range rho rejected");
  (match Guard.clamp_rho ~where:"t" (1.0 +. 1e-9) with
  | Ok (r, clamped) ->
      check_float "clamped to 1" 1.0 r;
      Alcotest.(check bool) "clamped" true clamped
  | Error _ -> Alcotest.fail "fp overshoot rejected");
  (match Guard.clamp_rho ~where:"t" (-1.0 -. 1e-9) with
  | Ok (r, _) -> check_float "clamped to -1" (-1.0) r
  | Error _ -> Alcotest.fail "fp undershoot rejected");
  Alcotest.(check bool) "NaN rejected" true
    (Result.is_error (Guard.clamp_rho ~where:"t" Float.nan));
  Alcotest.(check bool) "gross violation rejected" true
    (Result.is_error (Guard.clamp_rho ~where:"t" 1.5))

let test_finite_guards () =
  Alcotest.(check bool) "finite ok" true
    (Result.is_ok (Guard.finite ~where:"t" 1.0));
  Alcotest.(check bool) "nan err" true
    (Result.is_error (Guard.finite ~where:"t" Float.nan));
  Alcotest.(check bool) "inf err" true
    (Result.is_error (Guard.finite ~where:"t" Float.infinity));
  Alcotest.(check bool) "array err" true
    (Result.is_error (Guard.finite_array ~where:"t" [| 1.0; Float.nan |]))

(* ---- adaptive Monte Carlo ------------------------------------------- *)

module Engine = Spv_engine.Engine

(* One N(mu, sigma) stage: the adaptive estimator's Bernoulli event is
   [delay <= t_target], so the target sets the success probability. *)
let one_stage_ctx ?(mu = 100.0) ?(sigma = 5.0) () =
  Engine.Ctx.of_pipeline
    (Spv_core.Pipeline.make
       [| Spv_core.Stage.of_moments ~mu ~sigma () |]
       ~corr:(Spv_stats.Correlation.independent ~n:1))

let test_mc_constant_true () =
  let r = Engine.yield (one_stage_ctx ()) ~t_target:1e6 in
  check_float "p" 1.0 r.Engine.value;
  Alcotest.(check bool) "converged" true (r.Engine.stop = Engine.Converged)

let test_mc_constant_false_hits_cap () =
  (* p = 0: the relative-SE criterion can never be met. *)
  let r = Engine.yield ~max_samples:5000 (one_stage_ctx ()) ~t_target:(-1e6) in
  check_float "p" 0.0 r.Engine.value;
  Alcotest.(check bool) "cap reported" true (r.Engine.stop = Engine.Sample_cap);
  Alcotest.(check int) "stopped at cap" 5000 r.Engine.n_samples

let test_mc_coin_converges () =
  let ctx = one_stage_ctx ~mu:0.0 ~sigma:1.0 () in
  let t_target = Spv_stats.Special.big_phi_inv 0.3 in
  let r = Engine.yield ~seed:11 ~rel_se_target:0.02 ctx ~t_target in
  Alcotest.(check bool) "converged" true (r.Engine.stop = Engine.Converged);
  check_in_range "estimate near 0.3" ~lo:0.25 ~hi:0.35 r.Engine.value;
  check_in_range "rel se met" ~lo:0.0 ~hi:0.02
    (r.Engine.std_error /. r.Engine.value);
  Alcotest.(check bool) "respects floor" true (r.Engine.n_samples >= 1000)

let test_mc_rejects_bad_budgets () =
  let ctx = one_stage_ctx () in
  check_raises_invalid "zero cap" (fun () ->
      ignore (Engine.yield ~max_samples:0 ctx ~t_target:105.0));
  check_raises_invalid "zero batch" (fun () ->
      ignore (Engine.yield ~batch:0 ctx ~t_target:105.0));
  check_raises_invalid "nan target" (fun () ->
      ignore (Engine.yield ~rel_se_target:Float.nan ctx ~t_target:105.0))

let test_yield_adaptive_matches_analytic () =
  let stages =
    Array.init 4 (fun _ -> Spv_core.Stage.of_moments ~mu:100.0 ~sigma:5.0 ())
  in
  let p =
    Spv_core.Pipeline.make stages ~corr:(Spv_stats.Correlation.independent ~n:4)
  in
  let r =
    Engine.yield ~seed:5 ~rel_se_target:0.005 (Engine.Ctx.of_pipeline p)
      ~t_target:110.0
  in
  let exact = Spv_core.Yield.independent_exact p ~t_target:110.0 in
  Alcotest.(check bool) "converged" true (r.Engine.stop = Engine.Converged);
  check_in_range "MC brackets analytic"
    ~lo:(r.Engine.value -. (5.0 *. r.Engine.std_error))
    ~hi:(r.Engine.value +. (5.0 *. r.Engine.std_error))
    exact

(* ---- degenerate statistics samples ---------------------------------- *)

let test_kstest_rejects_degenerate_samples () =
  let g = G.make ~mu:0.0 ~sigma:1.0 in
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Kstest.against_cdf: empty sample") (fun () ->
      ignore (Spv_stats.Kstest.against_gaussian [||] g));
  Alcotest.check_raises "NaN sample names its index"
    (Invalid_argument
       "Kstest.against_cdf: non-finite value at sample index 1") (fun () ->
      ignore (Spv_stats.Kstest.against_gaussian [| 0.1; Float.nan; 0.3 |] g))

let test_histogram_rejects_and_counts () =
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Histogram.of_samples: empty sample") (fun () ->
      ignore (Spv_stats.Histogram.of_samples [||]));
  Alcotest.check_raises "inf sample names its index"
    (Invalid_argument
       "Histogram.of_samples: non-finite value at sample index 1") (fun () ->
      ignore (Spv_stats.Histogram.of_samples [| 1.0; Float.infinity |]));
  (* Streaming adds: non-finite values are counted, not binned. *)
  let h = Spv_stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  Spv_stats.Histogram.add h 0.5;
  Spv_stats.Histogram.add h Float.nan;
  Spv_stats.Histogram.add h Float.neg_infinity;
  Alcotest.(check int) "binned" 1 (Spv_stats.Histogram.total h);
  Alcotest.(check int) "rejected" 2 (Spv_stats.Histogram.rejected h)

let suite =
  [
    quick "exit codes distinct" test_exit_codes_distinct;
    quick "error messages one line" test_error_messages_one_line;
    quick "lint loop" test_lint_loop;
    quick "lint multiple driver" test_lint_multiple_driver;
    quick "lint undefined signal" test_lint_undefined_signal;
    quick "lint empty / no outputs" test_lint_empty_and_no_outputs;
    quick "lint zero fanin" test_lint_zero_fanin;
    quick "lint warnings only" test_lint_warnings_only;
    quick "lint line numbers" test_lint_line_numbers;
    quick "checked parse warns" test_checked_parse_reports_warnings;
    quick "clamp rho" test_clamp_rho;
    quick "finite guards" test_finite_guards;
    quick "mc constant true" test_mc_constant_true;
    quick "mc constant false caps" test_mc_constant_false_hits_cap;
    quick "mc coin converges" test_mc_coin_converges;
    quick "mc bad budgets" test_mc_rejects_bad_budgets;
    slow "adaptive yield vs analytic" test_yield_adaptive_matches_analytic;
    quick "kstest degenerate samples" test_kstest_rejects_degenerate_samples;
    quick "histogram rejects/counts" test_histogram_rejects_and_counts;
  ]
