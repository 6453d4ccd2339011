open Helpers
module S = Spv_stats.Sampling
module Rng = Spv_stats.Rng
module D = Spv_stats.Descriptive

let test_antithetic_pairing () =
  let rng = Rng.create ~seed:190 in
  let xs = S.antithetic_gaussians rng ~n_pairs:500 in
  Alcotest.(check int) "length" 1000 (Array.length xs);
  for i = 0 to 499 do
    check_float ~eps:1e-15 "paired" (-.xs.(2 * i)) xs.((2 * i) + 1)
  done;
  (* Mean is exactly zero by construction. *)
  check_float ~eps:1e-12 "exact zero mean" 0.0 (D.mean xs)

let test_lhs_stratification () =
  let rng = Rng.create ~seed:191 in
  let n = 64 in
  let pts = S.latin_hypercube rng ~dims:3 ~n in
  Alcotest.(check int) "rows" n (Array.length pts);
  (* Each dimension hits every stratum exactly once. *)
  for d = 0 to 2 do
    let hit = Array.make n false in
    Array.iter
      (fun row ->
        let k = int_of_float (row.(d) *. float_of_int n) in
        Alcotest.(check bool) "stratum unvisited" false hit.(k);
        hit.(k) <- true)
      pts;
    Alcotest.(check bool) "all strata" true (Array.for_all (fun b -> b) hit)
  done

let test_lhs_gaussian_moments () =
  let rng = Rng.create ~seed:192 in
  let pts = S.latin_hypercube_gaussians rng ~dims:2 ~n:2000 in
  let col d = Array.map (fun r -> r.(d)) pts in
  (* Stratified normals: moments far tighter than sqrt(n) Monte-Carlo. *)
  check_in_range "mean" ~lo:(-0.005) ~hi:0.005 (D.mean (col 0));
  check_in_range "std" ~lo:0.99 ~hi:1.01 (D.std (col 1))

let test_mvn_lhs_preserves_structure () =
  let rho = 0.6 in
  let mvn =
    Spv_stats.Mvn.create ~mus:[| 10.0; 20.0 |] ~sigmas:[| 2.0; 3.0 |]
      ~corr:(Spv_stats.Correlation.uniform ~n:2 ~rho)
  in
  let rng = Rng.create ~seed:193 in
  let draws = S.mvn_lhs mvn rng ~n:4000 in
  let xs = Array.map (fun d -> d.(0)) draws in
  let ys = Array.map (fun d -> d.(1)) draws in
  check_in_range "mean x" ~lo:9.97 ~hi:10.03 (D.mean xs);
  check_in_range "std y" ~lo:2.9 ~hi:3.1 (D.std ys);
  check_in_range "rho" ~lo:(rho -. 0.03) ~hi:(rho +. 0.03)
    (Spv_stats.Correlation.sample_correlation xs ys)

let test_mvn_antithetic_mirror () =
  let mvn =
    Spv_stats.Mvn.create ~mus:[| 5.0; -3.0 |] ~sigmas:[| 1.0; 2.0 |]
      ~corr:(Spv_stats.Correlation.independent ~n:2)
  in
  let rng = Rng.create ~seed:194 in
  let draws = S.mvn_antithetic mvn rng ~n_pairs:100 in
  for i = 0 to 99 do
    let a = draws.(2 * i) and b = draws.((2 * i) + 1) in
    (* Pairs mirror through the mean vector. *)
    check_float ~eps:1e-9 "mirror x" 10.0 (a.(0) +. b.(0));
    check_float ~eps:1e-9 "mirror y" (-6.0) (a.(1) +. b.(1))
  done

let yield_fixture () =
  let stages =
    Array.init 5 (fun i ->
        Spv_core.Stage.of_moments ~mu:(100.0 +. float_of_int i) ~sigma:5.0 ())
  in
  Spv_core.Pipeline.make stages
    ~corr:(Spv_stats.Correlation.uniform ~n:5 ~rho:0.3)

let test_lhs_yield_unbiased () =
  let p = yield_fixture () in
  let t_target = 110.0 in
  let reference =
    Spv_engine.Engine.(
      (yield ~method_:Mc ~seed:195 ~n:300_000 (Ctx.of_pipeline p) ~t_target)
        .value)
  in
  let lhs = Spv_core.Yield.monte_carlo_lhs p (Rng.create ~seed:196) ~n:20_000 ~t_target in
  check_in_range "LHS agrees" ~lo:(reference -. 0.01) ~hi:(reference +. 0.01) lhs

let test_lhs_reduces_variance () =
  let p = yield_fixture () in
  let t_target = 110.0 in
  let n = 400 in
  let repeats = 60 in
  let ctx = Spv_engine.Engine.Ctx.of_pipeline p in
  let plain_spread =
    D.std
      (Array.init repeats (fun k ->
           Spv_engine.Engine.(
             (yield ~method_:Mc ~seed:(1000 + k) ~n ctx ~t_target).value)))
  in
  let lhs_spread =
    D.std
      (Array.init repeats (fun k ->
           Spv_core.Yield.monte_carlo_lhs p (Rng.create ~seed:(1000 + k)) ~n
             ~t_target))
  in
  Alcotest.(check bool) "LHS tighter" true (lhs_spread < plain_spread)

let suite =
  [
    quick "antithetic pairing" test_antithetic_pairing;
    quick "lhs stratification" test_lhs_stratification;
    quick "lhs gaussian moments" test_lhs_gaussian_moments;
    slow "mvn lhs structure" test_mvn_lhs_preserves_structure;
    quick "mvn antithetic mirror" test_mvn_antithetic_mirror;
    slow "lhs yield unbiased" test_lhs_yield_unbiased;
    slow "lhs reduces variance" test_lhs_reduces_variance;
  ]
