open Helpers
module Mvn = Spv_stats.Mvn
module D = Spv_stats.Descriptive

let test_validation () =
  check_raises_invalid "sigma length" (fun () ->
      Mvn.create ~mus:[| 0.0; 0.0 |] ~sigmas:[| 1.0 |]
        ~corr:(Spv_stats.Correlation.independent ~n:2));
  check_raises_invalid "negative sigma" (fun () ->
      Mvn.create ~mus:[| 0.0 |] ~sigmas:[| -1.0 |]
        ~corr:(Spv_stats.Correlation.independent ~n:1))

let test_marginals () =
  let mvn =
    Mvn.create ~mus:[| 1.0; 2.0 |] ~sigmas:[| 0.5; 1.5 |]
      ~corr:(Spv_stats.Correlation.uniform ~n:2 ~rho:0.3)
  in
  Alcotest.(check int) "dim" 2 (Mvn.dim mvn);
  check_float "mean 1" 2.0 (Mvn.mean mvn 1);
  let g = Mvn.marginal mvn 0 in
  check_float "marginal sigma" 0.5 (Spv_stats.Gaussian.sigma g);
  check_close ~rel:1e-12 "covariance" (0.3 *. 0.5 *. 1.5) (Mvn.covariance mvn 0 1)

let test_sample_moments () =
  let rho = 0.7 in
  let mvn =
    Mvn.create ~mus:[| 10.0; -5.0 |] ~sigmas:[| 2.0; 3.0 |]
      ~corr:(Spv_stats.Correlation.uniform ~n:2 ~rho)
  in
  let rng = Spv_stats.Rng.create ~seed:60 in
  let draws = Mvn.sample_many mvn rng ~n:50_000 in
  let xs = Array.map (fun d -> d.(0)) draws in
  let ys = Array.map (fun d -> d.(1)) draws in
  check_in_range "mean x" ~lo:9.97 ~hi:10.03 (D.mean xs);
  check_in_range "mean y" ~lo:(-5.05) ~hi:(-4.95) (D.mean ys);
  check_in_range "std x" ~lo:1.97 ~hi:2.03 (D.std xs);
  check_in_range "std y" ~lo:2.95 ~hi:3.05 (D.std ys);
  check_in_range "rho" ~lo:0.68 ~hi:0.72
    (Spv_stats.Correlation.sample_correlation xs ys)

let test_perfect_correlation () =
  let mvn =
    Mvn.create ~mus:[| 0.0; 10.0 |] ~sigmas:[| 1.0; 1.0 |]
      ~corr:(Spv_stats.Correlation.perfectly_correlated ~n:2)
  in
  let rng = Spv_stats.Rng.create ~seed:61 in
  for _ = 1 to 100 do
    let d = Mvn.sample mvn rng in
    (* Same underlying draw shifted by the mean difference. *)
    check_float ~eps:1e-4 "rho=1 locks components" (d.(0) +. 10.0) d.(1)
  done

let test_zero_sigma () =
  let mvn =
    Mvn.create ~mus:[| 5.0; 1.0 |] ~sigmas:[| 0.0; 0.0 |]
      ~corr:(Spv_stats.Correlation.independent ~n:2)
  in
  let rng = Spv_stats.Rng.create ~seed:62 in
  let d = Mvn.sample mvn rng in
  check_float "deterministic x" 5.0 d.(0);
  check_float "deterministic y" 1.0 d.(1);
  check_float "max" 5.0 (Mvn.sample_max (Mvn.sampler mvn) rng)

let test_sample_max () =
  let mvn =
    Mvn.create ~mus:[| 0.0; 0.0; 100.0 |] ~sigmas:[| 1.0; 1.0; 1.0 |]
      ~corr:(Spv_stats.Correlation.independent ~n:3)
  in
  let rng = Spv_stats.Rng.create ~seed:63 in
  let m = Mvn.sample_max (Mvn.sampler mvn) rng in
  check_in_range "dominated max" ~lo:90.0 ~hi:110.0 m

let test_sample_max_allocation () =
  let n = 16 in
  let mvn =
    Mvn.create
      ~mus:(Array.init n float_of_int)
      ~sigmas:(Array.make n 2.0)
      ~corr:(Spv_stats.Correlation.uniform ~n ~rho:0.4)
  in
  let s = Mvn.sampler mvn and rng = Spv_stats.Rng.create ~seed:64 in
  let words =
    words_per_call ~n:5000 (fun () -> ignore (Mvn.sample_max s rng))
  in
  (* The boxed result only: nothing per dimension. *)
  check_in_range "words per draw" ~lo:0.0 ~hi:4.0 words

let test_sample_max_matches_sample () =
  let mvn =
    Mvn.create ~mus:[| 1.0; -2.0; 3.0 |] ~sigmas:[| 1.5; 0.5; 2.0 |]
      ~corr:(Spv_stats.Correlation.uniform ~n:3 ~rho:0.6)
  in
  let a = Spv_stats.Rng.create ~seed:65 and b = Spv_stats.Rng.create ~seed:65 in
  let s = Mvn.sampler mvn in
  for _ = 1 to 50 do
    let full = Array.fold_left Float.max neg_infinity (Mvn.sample mvn a) in
    Alcotest.(check int64) "same bits" (Int64.bits_of_float full)
      (Int64.bits_of_float (Mvn.sample_max s b))
  done

let suite =
  [
    quick "validation" test_validation;
    quick "marginals" test_marginals;
    slow "sample moments" test_sample_moments;
    quick "perfect correlation" test_perfect_correlation;
    quick "zero sigma degenerate" test_zero_sigma;
    quick "sample max" test_sample_max;
    quick "sample max matches sample" test_sample_max_matches_sample;
    quick "sample max allocation" test_sample_max_allocation;
  ]
