open Helpers
module C = Spv_stats.Correlation

let test_uniform () =
  let m = C.uniform ~n:4 ~rho:0.3 in
  check_float "diag" 1.0 (C.get m 0 0);
  check_float "off" 0.3 (C.get m 1 3);
  Alcotest.(check bool) "valid" true (correlation_is_valid m)

let test_uniform_validity_range () =
  (* rho slightly below -1/(n-1) must be rejected. *)
  check_raises_invalid "too negative" (fun () -> C.uniform ~n:4 ~rho:(-0.5));
  ignore (C.uniform ~n:4 ~rho:(-0.33));
  check_raises_invalid "rho > 1" (fun () -> C.uniform ~n:4 ~rho:1.1)

let test_identity_and_full () =
  Alcotest.(check bool) "independent valid" true (correlation_is_valid (C.independent ~n:5));
  let full = C.perfectly_correlated ~n:3 in
  check_float "full off-diag" 1.0 (C.get full 0 2);
  Alcotest.(check bool) "full valid (PSD)" true (correlation_is_valid full)

let test_exponential_decay () =
  let positions = [| 0.0; 1.0; 3.0 |] in
  let m = C.exponential_decay ~n:3 ~positions ~length:2.0 in
  check_close ~rel:1e-12 "rho(0,1)" (exp (-0.5)) (C.get m 0 1);
  check_close ~rel:1e-12 "rho(0,2)" (exp (-1.5)) (C.get m 0 2);
  Alcotest.(check bool) "valid" true (correlation_is_valid m);
  check_raises_invalid "bad length" (fun () ->
      C.exponential_decay ~n:3 ~positions ~length:0.0)

let test_blend () =
  let a = C.perfectly_correlated ~n:3 in
  let b = C.independent ~n:3 in
  let m = C.blend ~weight:0.25 a b in
  check_float "blended off-diag" 0.25 (C.get m 0 1);
  check_float "blended diag" 1.0 (C.get m 1 1);
  Alcotest.(check bool) "valid" true (correlation_is_valid m)

let test_of_function_symmetrises () =
  let m = C.of_function ~n:3 (fun i j -> if i < j then 0.5 else 0.9) in
  check_float "symmetric" (C.get m 0 1) (C.get m 1 0)

let test_invalid_entry () =
  check_raises_invalid "entry > 1" (fun () -> C.of_function ~n:2 (fun _ _ -> 1.5))

let test_not_psd_detected () =
  (* Three variables pairwise correlation -0.9 is impossible. *)
  let m =
    Spv_stats.Matrix.init ~rows:3 ~cols:3 (fun i j ->
        if i = j then 1.0 else -0.9)
  in
  Alcotest.(check bool) "not valid" false (correlation_is_valid m)

let test_sample_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close ~rel:1e-12 "self correlation" 1.0 (C.sample_correlation xs xs);
  let ys = Array.map (fun x -> -.x) xs in
  check_close ~rel:1e-12 "anticorrelation" (-1.0) (C.sample_correlation xs ys);
  check_raises_invalid "degenerate" (fun () ->
      C.sample_correlation xs [| 1.0; 1.0; 1.0; 1.0 |])

let test_sample_correlation_recovers_rho () =
  let rho = 0.6 in
  let mvn =
    Spv_stats.Mvn.create ~mus:[| 0.0; 0.0 |] ~sigmas:[| 1.0; 1.0 |]
      ~corr:(C.uniform ~n:2 ~rho)
  in
  let rng = Spv_stats.Rng.create ~seed:50 in
  let draws = Spv_stats.Mvn.sample_many mvn rng ~n:50_000 in
  let xs = Array.map (fun d -> d.(0)) draws in
  let ys = Array.map (fun d -> d.(1)) draws in
  check_in_range "recovered rho" ~lo:(rho -. 0.02) ~hi:(rho +. 0.02)
    (C.sample_correlation xs ys)

let prop_uniform_valid =
  prop "uniform matrices are valid"
    QCheck2.Gen.(pair (int_range 2 8) (float_bound_inclusive 1.0))
    (fun (n, rho) -> correlation_is_valid (C.uniform ~n ~rho))

let suite =
  [
    quick "uniform" test_uniform;
    quick "uniform validity range" test_uniform_validity_range;
    quick "identity and full" test_identity_and_full;
    quick "exponential decay" test_exponential_decay;
    quick "blend" test_blend;
    quick "of_function symmetrises" test_of_function_symmetrises;
    quick "invalid entry rejected" test_invalid_entry;
    quick "non-PSD detected" test_not_psd_detected;
    quick "sample correlation" test_sample_correlation;
    slow "sample correlation recovers rho" test_sample_correlation_recovers_rho;
    prop_uniform_valid;
  ]
