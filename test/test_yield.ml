open Helpers
module Y = Spv_core.Yield
module P = Spv_core.Pipeline
module Stage = Spv_core.Stage
module C = Spv_stats.Correlation

let pipeline ?(rho = 0.0) ?(n = 4) () =
  let stages =
    Array.init n (fun i ->
        Stage.of_moments
          ~name:(Printf.sprintf "s%d" i)
          ~mu:(100.0 +. float_of_int i)
          ~sigma:5.0 ())
  in
  P.make stages ~corr:(C.uniform ~n ~rho)

let test_independent_exact_formula () =
  let p = pipeline () in
  let t_target = 110.0 in
  let expected =
    Array.fold_left
      (fun acc g -> acc *. Spv_stats.Gaussian.cdf g t_target)
      1.0 (P.stage_gaussians p)
  in
  check_close ~rel:1e-12 "product of Phis" expected
    (Y.independent_exact p ~t_target)

let test_independent_exact_with_deterministic_stage () =
  let stages =
    [| Stage.of_moments ~mu:100.0 ~sigma:0.0 (); Stage.of_moments ~mu:90.0 ~sigma:5.0 () |]
  in
  let p = P.make stages ~corr:(C.independent ~n:2) in
  check_float "passes when below" (Spv_stats.Gaussian.cdf (Spv_stats.Gaussian.make ~mu:90.0 ~sigma:5.0) 101.0)
    (Y.independent_exact p ~t_target:101.0);
  check_float "fails when above" 0.0 (Y.independent_exact p ~t_target:99.0)

let test_estimate_dispatch () =
  (* Independent: estimate = exact product. Correlated: = Clark. *)
  let p0 = pipeline () in
  check_close ~rel:1e-12 "independent dispatch"
    (Y.independent_exact p0 ~t_target:108.0)
    (Y.estimate p0 ~t_target:108.0);
  let p5 = pipeline ~rho:0.5 () in
  check_close ~rel:1e-12 "correlated dispatch"
    (Y.clark_gaussian p5 ~t_target:108.0)
    (Y.estimate p5 ~t_target:108.0)

let test_yield_monotone_in_target () =
  let p = pipeline ~rho:0.3 () in
  let y1 = Y.clark_gaussian p ~t_target:100.0 in
  let y2 = Y.clark_gaussian p ~t_target:110.0 in
  let y3 = Y.clark_gaussian p ~t_target:120.0 in
  Alcotest.(check bool) "monotone" true (y1 < y2 && y2 < y3)

module Engine = Spv_engine.Engine

(* Fixed-n Monte-Carlo yield from the engine's stage-delay MVN draws. *)
let mc_yield ~seed ~n p ~t_target =
  (Engine.yield ~method_:Engine.Mc ~seed ~n (Engine.Ctx.of_pipeline p)
     ~t_target)
    .Engine.value

let test_correlation_helps_yield () =
  (* At a fixed tight target, correlated stages fail together, which
     raises the joint yield. *)
  let y0 = mc_yield ~seed:130 ~n:100_000 (pipeline ~rho:0.0 ()) ~t_target:107.0 in
  let y9 = mc_yield ~seed:131 ~n:100_000 (pipeline ~rho:0.9 ()) ~t_target:107.0 in
  Alcotest.(check bool) "correlation raises yield" true (y9 > y0 +. 0.01)

let test_target_delay_inversion () =
  let p = pipeline ~rho:0.4 () in
  List.iter
    (fun yield ->
      let t = Y.target_delay_for_yield p ~yield in
      check_close ~rel:1e-6 "roundtrip" yield (Y.clark_gaussian p ~t_target:t))
    [ 0.5; 0.8; 0.95 ];
  check_raises_invalid "bad yield" (fun () ->
      ignore (Y.target_delay_for_yield p ~yield:1.5))

let test_per_stage_yield_target () =
  check_close ~rel:1e-5 "paper's 3-stage value" 0.928318
    (Y.per_stage_yield_target ~yield:0.8 ~n_stages:3);
  check_close ~rel:1e-12 "single stage" 0.8
    (Y.per_stage_yield_target ~yield:0.8 ~n_stages:1);
  check_raises_invalid "n=0" (fun () ->
      ignore (Y.per_stage_yield_target ~yield:0.8 ~n_stages:0))

let test_stage_yields () =
  let p = pipeline () in
  let ys = Y.stage_yields p ~t_target:105.0 in
  Alcotest.(check int) "length" 4 (Array.length ys);
  (* Slower stages have lower standalone yield. *)
  Alcotest.(check bool) "ordered" true (ys.(0) > ys.(3));
  check_close ~rel:1e-9 "matches Phi"
    (Spv_stats.Special.big_phi 1.0)
    ys.(0)

let test_mc_agrees_with_exact_independent () =
  let p = pipeline () in
  let t_target = 108.0 in
  let exact = Y.independent_exact p ~t_target in
  let mc = mc_yield ~seed:132 ~n:200_000 p ~t_target in
  check_in_range "MC vs exact" ~lo:(exact -. 0.004) ~hi:(exact +. 0.004) mc

let test_mc_distribution_shape () =
  let p = pipeline ~rho:0.2 () in
  let xs =
    Engine.sample_delays ~seed:133 (Engine.Ctx.of_pipeline p) ~n:50_000
  in
  (* Max of Gaussians: right-skewed, mean above the largest stage mean. *)
  Alcotest.(check bool) "mean above jensen" true
    (Spv_stats.Descriptive.mean xs > 103.0);
  Alcotest.(check bool) "right-skewed" true
    (Spv_stats.Descriptive.skewness xs > 0.0)

let test_wilson_interval () =
  (* Known value: 8/10 at 95% -> approximately (0.49, 0.94). *)
  let lo, hi = Y.wilson_interval ~successes:8 ~trials:10 ~confidence:0.95 in
  check_in_range "lower" ~lo:0.47 ~hi:0.51 lo;
  check_in_range "upper" ~lo:0.92 ~hi:0.96 hi;
  (* Degenerate corners stay in [0,1]. *)
  let lo0, _ = Y.wilson_interval ~successes:0 ~trials:50 ~confidence:0.95 in
  check_float "zero successes lower" 0.0 lo0;
  let _, hi1 = Y.wilson_interval ~successes:50 ~trials:50 ~confidence:0.95 in
  check_float "all successes upper" 1.0 hi1;
  check_raises_invalid "bad trials" (fun () ->
      ignore (Y.wilson_interval ~successes:0 ~trials:0 ~confidence:0.9))

let test_wilson_covers_truth () =
  (* The interval should contain the true yield in the vast majority of
     repeats. *)
  let p = pipeline ~rho:0.2 () in
  let t_target = 108.0 in
  let truth = mc_yield ~seed:300 ~n:400_000 p ~t_target in
  let n = 1000 in
  let covered = ref 0 in
  for k = 1 to 100 do
    let y = mc_yield ~seed:(300 + k) ~n p ~t_target in
    let successes = int_of_float (Float.round (y *. float_of_int n)) in
    let lo, hi = Y.wilson_interval ~successes ~trials:n ~confidence:0.95 in
    if truth >= lo && truth <= hi then incr covered
  done;
  Alcotest.(check bool)
    (Printf.sprintf "95%% interval covers >= 88%% of repeats (%d/100)" !covered)
    true (!covered >= 88)

let test_loss_matches_complement_in_bulk () =
  (* Where 1 - yield is still well-conditioned the stable loss must
     agree with the naive complement. *)
  let p0 = pipeline () in
  check_close ~rel:1e-9 "independent bulk"
    (1.0 -. Y.independent_exact p0 ~t_target:108.0)
    (Y.independent_exact_loss p0 ~t_target:108.0);
  let p5 = pipeline ~rho:0.5 () in
  check_close ~rel:1e-9 "clark bulk"
    (1.0 -. Y.clark_gaussian p5 ~t_target:108.0)
    (Y.clark_gaussian_loss p5 ~t_target:108.0);
  check_close ~rel:1e-9 "dispatch matches complement"
    (1.0 -. Y.estimate p0 ~t_target:108.0)
    (Y.loss p0 ~t_target:108.0)

let test_loss_nonzero_to_8_sigma () =
  (* An 8-sigma target: every naive complement rounds the loss to 0,
     but real dies still fail.  Single stage N(100, 5), target at
     mu + 8 sigma: loss = Q(8) ~ 6.2e-16 per stage. *)
  let stages = [| Stage.of_moments ~mu:100.0 ~sigma:5.0 () |] in
  let p = P.make stages ~corr:(C.independent ~n:1) in
  let t_target = 100.0 +. (8.0 *. 5.0) in
  let q8 = 6.22096057427178e-16 in
  (* At 8 sigma the naive complement is a few ULPs of 1.0 — off by ~7%
     relative; by 10 sigma it is exactly 0.  The stable loss keeps full
     relative precision at both. *)
  Alcotest.(check bool) "naive complement off by > 1% at 8 sigma" true
    (let naive = 1.0 -. Y.independent_exact p ~t_target in
     abs_float (naive -. q8) /. q8 > 0.01);
  Alcotest.(check bool) "naive complement exactly 0 at 10 sigma" true
    (1.0 -. Y.independent_exact p ~t_target:150.0 = 0.0);
  check_close ~rel:1e-9 "loss = Q(10) at 10 sigma" 7.61985302416053e-24
    (Y.independent_exact_loss p ~t_target:150.0);
  check_close ~rel:1e-9 "independent loss = Q(8)" q8
    (Y.independent_exact_loss p ~t_target);
  check_close ~rel:1e-9 "clark loss = Q(8)" q8
    (Y.clark_gaussian_loss p ~t_target);
  (* Four independent 8-sigma stages: loss ~ 4 Q(8). *)
  let p4 =
    P.make
      (Array.init 4 (fun i ->
           Stage.of_moments ~name:(Printf.sprintf "s%d" i) ~mu:100.0
             ~sigma:5.0 ()))
      ~corr:(C.independent ~n:4)
  in
  check_close ~rel:1e-9 "4-stage loss = 4 Q(8)" (4.0 *. q8)
    (Y.independent_exact_loss p4 ~t_target)

let test_loss_deterministic_stage () =
  let stages =
    [| Stage.of_moments ~mu:100.0 ~sigma:0.0 ();
       Stage.of_moments ~mu:90.0 ~sigma:5.0 () |]
  in
  let p = P.make stages ~corr:(C.independent ~n:2) in
  check_close ~rel:1e-9 "loss below step"
    (1.0 -. Y.independent_exact p ~t_target:101.0)
    (Y.independent_exact_loss p ~t_target:101.0);
  check_float "loss above step" 1.0 (Y.independent_exact_loss p ~t_target:99.0)

let prop_yield_bounded =
  prop "yield in [0,1]"
    QCheck2.Gen.(pair (float_range 50.0 200.0) (float_bound_inclusive 0.9))
    (fun (t_target, rho) ->
      let y = Y.clark_gaussian (pipeline ~rho ()) ~t_target in
      y >= 0.0 && y <= 1.0)

let prop_independent_below_min_stage =
  (* The pipeline can never yield better than its worst stage. *)
  prop "joint yield <= min stage yield"
    QCheck2.Gen.(float_range 90.0 130.0)
    (fun t_target ->
      let p = pipeline () in
      let joint = Y.independent_exact p ~t_target in
      let min_stage =
        Array.fold_left Float.min 1.0 (Y.stage_yields p ~t_target)
      in
      joint <= min_stage +. 1e-12)

let suite =
  [
    quick "independent exact formula" test_independent_exact_formula;
    quick "deterministic stage" test_independent_exact_with_deterministic_stage;
    quick "estimate dispatch" test_estimate_dispatch;
    quick "monotone in target" test_yield_monotone_in_target;
    slow "correlation helps yield" test_correlation_helps_yield;
    quick "target delay inversion" test_target_delay_inversion;
    quick "per-stage budget" test_per_stage_yield_target;
    quick "stage yields" test_stage_yields;
    slow "MC vs exact" test_mc_agrees_with_exact_independent;
    slow "MC distribution shape" test_mc_distribution_shape;
    quick "loss matches complement in bulk" test_loss_matches_complement_in_bulk;
    quick "loss nonzero to 8 sigma" test_loss_nonzero_to_8_sigma;
    quick "loss with deterministic stage" test_loss_deterministic_stage;
    quick "wilson interval" test_wilson_interval;
    slow "wilson coverage" test_wilson_covers_truth;
    prop_yield_bounded;
    prop_independent_below_min_stage;
  ]
