open Helpers
module Clark = Spv_core.Clark
module G = Spv_stats.Gaussian
module C = Spv_stats.Correlation

let test_max2_dominant () =
  (* A variable far above the other: max ~ the dominant one. *)
  let hi = G.make ~mu:100.0 ~sigma:1.0 in
  let lo = G.make ~mu:0.0 ~sigma:1.0 in
  let m = Clark.max2 hi lo ~rho:0.0 in
  check_close ~rel:1e-9 "mean" 100.0 (G.mu m);
  check_close ~rel:1e-6 "sigma" 1.0 (G.sigma m)

let test_max2_symmetric_standard () =
  (* Known closed form: max of two iid N(0,1) has mean 1/sqrt(pi) and
     variance 1 - 1/pi. *)
  let g = G.make ~mu:0.0 ~sigma:1.0 in
  let m = Clark.max2_moments g g ~rho:0.0 in
  check_close ~rel:1e-10 "mean" (1.0 /. sqrt Float.pi) m.Clark.mean;
  check_close ~rel:1e-10 "variance" (1.0 -. (1.0 /. Float.pi)) m.Clark.variance

let test_max2_correlated_known () =
  (* For correlation rho, E[max] = sqrt((1-rho)/pi). *)
  let g = G.make ~mu:0.0 ~sigma:1.0 in
  List.iter
    (fun rho ->
      let m = Clark.max2_moments g g ~rho in
      check_close ~rel:1e-10
        (Printf.sprintf "mean at rho=%g" rho)
        (sqrt ((1.0 -. rho) /. Float.pi))
        m.Clark.mean)
    [ -0.5; 0.0; 0.3; 0.9 ]

let test_max2_degenerate_rho1 () =
  let g = G.make ~mu:5.0 ~sigma:2.0 in
  let m = Clark.max2_moments g g ~rho:1.0 in
  check_float "mean" 5.0 m.Clark.mean;
  check_float "variance" 4.0 m.Clark.variance;
  (* Different means, perfectly correlated equal sigmas: max is the
     larger-mean variable almost surely. *)
  let m2 =
    Clark.max2_moments (G.make ~mu:3.0 ~sigma:2.0) (G.make ~mu:7.0 ~sigma:2.0)
      ~rho:1.0
  in
  check_float "dominated mean" 7.0 m2.Clark.mean

let test_max2_zero_sigma () =
  (* max of a constant and a Gaussian. *)
  let const = G.make ~mu:1.0 ~sigma:0.0 in
  let g = G.make ~mu:0.0 ~sigma:1.0 in
  let m = Clark.max2_moments g const ~rho:0.0 in
  (* E[max(X, 1)] for X~N(0,1): 1*Phi(1) + phi(1) + 0*... ; closed form:
     E = 1*Phi((1-0)/1)... using Clark with s2=0: a=1, alpha=-1. *)
  let phi = Spv_stats.Special.phi 1.0 in
  let cdf = Spv_stats.Special.big_phi 1.0 in
  check_close ~rel:1e-10 "mean" ((0.0 *. (1. -. cdf)) +. (1.0 *. cdf) +. phi)
    m.Clark.mean

let test_max2_against_mc () =
  let g1 = G.make ~mu:10.0 ~sigma:3.0 in
  let g2 = G.make ~mu:12.0 ~sigma:2.0 in
  let rho = 0.4 in
  let mvn =
    Spv_stats.Mvn.create ~mus:[| 10.0; 12.0 |] ~sigmas:[| 3.0; 2.0 |]
      ~corr:(C.uniform ~n:2 ~rho)
  in
  let rng = Spv_stats.Rng.create ~seed:120 in
  let sampler = Spv_stats.Mvn.sampler mvn in
  let xs = Array.init 200_000 (fun _ -> Spv_stats.Mvn.sample_max sampler rng) in
  let m = Clark.max2_moments g1 g2 ~rho in
  let mc_mean = Spv_stats.Descriptive.mean xs in
  let mc_std = Spv_stats.Descriptive.std xs in
  check_in_range "mean vs MC" ~lo:(mc_mean -. 0.02) ~hi:(mc_mean +. 0.02)
    m.Clark.mean;
  check_in_range "std vs MC" ~lo:(0.99 *. mc_std) ~hi:(1.01 *. mc_std)
    (sqrt m.Clark.variance)

let test_correlation_with_max_bounds () =
  let g = G.make ~mu:0.0 ~sigma:1.0 in
  let m = Clark.max2_moments g g ~rho:0.2 in
  let r = Clark.correlation_with_max ~s1:1.0 ~s2:1.0 ~r1:0.5 ~r2:0.7 m in
  check_in_range "bounded" ~lo:(-1.0) ~hi:1.0 r;
  Alcotest.(check bool) "positive when both positive" true (r > 0.0)

let test_max_n_vs_exact_small () =
  let gs =
    [| G.make ~mu:100.0 ~sigma:5.0; G.make ~mu:104.0 ~sigma:4.0;
       G.make ~mu:98.0 ~sigma:6.0 |]
  in
  let approx = Clark.max_n_independent gs in
  let em, es = Clark.exact_max_moments_independent gs in
  check_in_range "mean error < 0.1%" ~lo:(0.999 *. em) ~hi:(1.001 *. em)
    (G.mu approx);
  check_in_range "std error < 5%" ~lo:(0.95 *. es) ~hi:(1.05 *. es)
    (G.sigma approx)

let test_max_n_perfectly_correlated () =
  (* rho = 1, equal sigma: max = largest-mean variable exactly. *)
  let gs = Array.init 5 (fun i -> G.make ~mu:(float_of_int (90 + i)) ~sigma:3.0) in
  let m = Clark.max_n gs ~corr:(C.perfectly_correlated ~n:5) in
  check_close ~rel:1e-9 "mean" 94.0 (G.mu m);
  check_close ~rel:1e-6 "sigma" 3.0 (G.sigma m)

let test_max_n_single () =
  let g = G.make ~mu:7.0 ~sigma:2.0 in
  let m = Clark.max_n [| g |] ~corr:(C.independent ~n:1) in
  check_float "identity" 7.0 (G.mu m)

let test_max_n_monotone_in_n () =
  (* Adding an iid stage increases the expected max. *)
  let g = G.make ~mu:100.0 ~sigma:5.0 in
  let mean_of n = G.mu (Clark.max_n_independent (Array.make n g)) in
  Alcotest.(check bool) "monotone" true
    (mean_of 2 < mean_of 4 && mean_of 4 < mean_of 8)

let test_exact_cdf_independent () =
  let gs = [| G.make ~mu:0.0 ~sigma:1.0; G.make ~mu:0.0 ~sigma:1.0 |] in
  check_close ~rel:1e-12 "product of Phis"
    (Spv_stats.Special.big_phi 1.0 ** 2.0)
    (Clark.exact_max_cdf_independent gs 1.0)

let test_order_matters_only_slightly () =
  let gs =
    Array.init 6 (fun i -> G.make ~mu:(100.0 +. (3.0 *. float_of_int i)) ~sigma:4.0)
  in
  let inc = Clark.max_n_independent ~order:Clark.Increasing_mean gs in
  let dec = Clark.max_n_independent ~order:Clark.Decreasing_mean gs in
  check_in_range "orders agree to 1%"
    ~lo:(0.99 *. G.mu inc) ~hi:(1.01 *. G.mu inc) (G.mu dec)

let test_errors () =
  check_raises_invalid "empty" (fun () ->
      ignore (Clark.max_n [||] ~corr:(C.independent ~n:1)));
  check_raises_invalid "bad rho" (fun () ->
      ignore
        (Clark.max2 (G.make ~mu:0.0 ~sigma:1.0) (G.make ~mu:0.0 ~sigma:1.0)
           ~rho:1.5))

let prop_max_n_above_jensen =
  prop ~count:100 "E[max] >= max of means"
    QCheck2.Gen.(
      list_size (int_range 2 8)
        (pair (float_range 50.0 150.0) (float_range 0.1 10.0)))
    (fun specs ->
      let gs =
        Array.of_list (List.map (fun (mu, sigma) -> G.make ~mu ~sigma) specs)
      in
      let m = Clark.max_n_independent gs in
      let jensen =
        Array.fold_left (fun acc g -> Float.max acc (G.mu g)) neg_infinity gs
      in
      G.mu m >= jensen -. 1e-6)

let prop_max2_commutative =
  prop ~count:100 "max2 commutative"
    QCheck2.Gen.(
      tup4 (float_range 0.0 10.0) (float_range 0.1 5.0)
        (float_range 0.0 10.0) (float_range 0.1 5.0))
    (fun (m1, s1, m2, s2) ->
      let a = G.make ~mu:m1 ~sigma:s1 and b = G.make ~mu:m2 ~sigma:s2 in
      let x = Clark.max2 a b ~rho:0.3 and y = Clark.max2 b a ~rho:0.3 in
      abs_float (G.mu x -. G.mu y) < 1e-9
      && abs_float (G.sigma x -. G.sigma y) < 1e-9)

let test_max2_rho_extremes () =
  (* The closed form E[max] = sqrt((1-rho)/pi) for iid N(0,1) holds at
     the boundary correlations too. *)
  let g = G.make ~mu:0.0 ~sigma:1.0 in
  let anti = Clark.max2_moments g g ~rho:(-1.0) in
  check_close ~rel:1e-10 "mean at rho=-1"
    (sqrt (2.0 /. Float.pi))
    anti.Clark.mean;
  (* rho = 1 with equal sigmas hits the degenerate a < threshold branch:
     the two variables are the same variable. *)
  let full = Clark.max2_moments g g ~rho:1.0 in
  check_float "mean at rho=1" 0.0 full.Clark.mean;
  check_float "variance at rho=1" 1.0 full.Clark.variance

let test_max2_both_sigmas_zero () =
  (* Two constants: the max is the larger one, exactly, with zero
     variance — and nothing divides by the zero spread. *)
  let m =
    Clark.max2_moments (G.make ~mu:3.0 ~sigma:0.0) (G.make ~mu:7.0 ~sigma:0.0)
      ~rho:0.0
  in
  check_float "mean" 7.0 m.Clark.mean;
  check_float "variance" 0.0 m.Clark.variance

let test_max2_equal_means_degenerate () =
  (* Equal means AND a below the degenerate threshold: either branch is
     the same answer; the correlation with such a zero-spread max is
     defined as 0 rather than 0/0. *)
  let g = G.make ~mu:5.0 ~sigma:0.0 in
  let m = Clark.max2_moments g g ~rho:0.0 in
  check_float "mean" 5.0 m.Clark.mean;
  check_float "variance" 0.0 m.Clark.variance;
  check_float "corr with degenerate max" 0.0
    (Clark.correlation_with_max ~s1:0.0 ~s2:0.0 ~r1:0.5 ~r2:0.5 m)

let prop_correlation_with_max_bounded =
  prop ~count:300 "correlation_with_max finite and in [-1,1]"
    QCheck2.Gen.(
      tup4
        (pair (float_range (-50.0) 50.0) (float_range 0.0 10.0))
        (pair (float_range (-50.0) 50.0) (float_range 0.0 10.0))
        (float_range (-0.95) 0.95)
        (pair (float_range (-0.95) 0.95) (float_range (-0.95) 0.95)))
    (fun ((m1, s1), (m2, s2), rho, (r1, r2)) ->
      let m =
        Clark.max2_moments (G.make ~mu:m1 ~sigma:s1) (G.make ~mu:m2 ~sigma:s2)
          ~rho
      in
      let r = Clark.correlation_with_max ~s1 ~s2 ~r1 ~r2 m in
      Float.is_finite r && r >= -1.0 && r <= 1.0)

let suite =
  [
    quick "max2 dominant" test_max2_dominant;
    quick "max2 iid standard" test_max2_symmetric_standard;
    quick "max2 correlated closed form" test_max2_correlated_known;
    quick "max2 degenerate rho=1" test_max2_degenerate_rho1;
    quick "max2 zero sigma" test_max2_zero_sigma;
    slow "max2 vs MC" test_max2_against_mc;
    quick "correlation with max" test_correlation_with_max_bounds;
    quick "max_n vs exact" test_max_n_vs_exact_small;
    quick "max_n rho=1" test_max_n_perfectly_correlated;
    quick "max_n single" test_max_n_single;
    quick "max_n monotone" test_max_n_monotone_in_n;
    quick "exact cdf" test_exact_cdf_independent;
    quick "fold order insensitivity" test_order_matters_only_slightly;
    quick "errors" test_errors;
    quick "max2 rho extremes" test_max2_rho_extremes;
    quick "max2 both sigmas zero" test_max2_both_sigmas_zero;
    quick "max2 equal means degenerate" test_max2_equal_means_degenerate;
    prop_max_n_above_jensen;
    prop_max2_commutative;
    prop_correlation_with_max_bounded;
  ]
