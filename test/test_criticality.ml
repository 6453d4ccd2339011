open Helpers
module Cr = Spv_core.Stage_criticality
module Stage = Spv_core.Stage
module P = Spv_core.Pipeline
module C = Spv_stats.Correlation

let balanced_pipeline n =
  P.make
    (Array.init n (fun i ->
         Stage.of_moments ~name:(string_of_int i) ~mu:100.0 ~sigma:5.0 ()))
    ~corr:(C.independent ~n)

let dominated_pipeline () =
  let stages =
    [|
      Stage.of_moments ~mu:100.0 ~sigma:3.0 ();
      Stage.of_moments ~mu:140.0 ~sigma:3.0 ();
      Stage.of_moments ~mu:95.0 ~sigma:3.0 ();
    |]
  in
  P.make stages ~corr:(C.independent ~n:3)

let test_probabilities_sum_to_one () =
  let p = balanced_pipeline 4 in
  let probs = Cr.probabilities ~n:10000 p (Spv_stats.Rng.create ~seed:150) in
  check_close ~rel:1e-9 "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 probs)

let test_balanced_is_uniform () =
  let p = balanced_pipeline 4 in
  let probs = Cr.probabilities ~n:40000 p (Spv_stats.Rng.create ~seed:151) in
  Array.iter (fun pr -> check_in_range "near 1/4" ~lo:0.23 ~hi:0.27 pr) probs

let test_dominated_concentrates () =
  let p = dominated_pipeline () in
  let probs = Cr.probabilities ~n:10000 p (Spv_stats.Rng.create ~seed:152) in
  check_in_range "slow stage almost surely critical" ~lo:0.99 ~hi:1.0 probs.(1);
  Alcotest.(check int) "most critical" 1 (Cr.most_critical probs)

let test_analytic_matches_mc () =
  let stages =
    [|
      Stage.of_moments ~mu:100.0 ~sigma:5.0 ();
      Stage.of_moments ~mu:103.0 ~sigma:4.0 ();
      Stage.of_moments ~mu:98.0 ~sigma:7.0 ();
    |]
  in
  let p = P.make stages ~corr:(C.independent ~n:3) in
  let analytic = Cr.probabilities_analytic_independent p in
  check_close ~rel:1e-6 "analytic sums to 1" 1.0
    (Array.fold_left ( +. ) 0.0 analytic);
  let mc = Cr.probabilities ~n:200000 p (Spv_stats.Rng.create ~seed:153) in
  Array.iteri
    (fun i a ->
      check_in_range
        (Printf.sprintf "stage %d" i)
        ~lo:(mc.(i) -. 0.01) ~hi:(mc.(i) +. 0.01) a)
    analytic

(* Tied deterministic stages: both estimates must give the tie to the
   lowest index, so the probabilities still sum to 1 rather than to
   the number of ties. *)
let test_analytic_ties_lowest_index () =
  let pipeline mus sigmas =
    P.make
      (Array.map2 (fun mu sigma -> Stage.of_moments ~mu ~sigma ()) mus sigmas)
      ~corr:(C.independent ~n:(Array.length mus))
  in
  let mc p = Cr.probabilities ~n:20000 p (Spv_stats.Rng.create ~seed:154) in
  let check_case name mus sigmas =
    let p = pipeline mus sigmas in
    let analytic = Cr.probabilities_analytic_independent p in
    check_close ~rel:1e-6 (name ^ ": sums to 1") 1.0
      (Array.fold_left ( +. ) 0.0 analytic);
    let mc = mc p in
    Array.iteri
      (fun i a ->
        check_in_range
          (Printf.sprintf "%s: stage %d" name i)
          ~lo:(mc.(i) -. 0.02) ~hi:(mc.(i) +. 0.02) a)
      analytic
  in
  check_case "two tied" [| 100.0; 100.0 |] [| 0.0; 0.0 |];
  check_case "three tied" [| 100.0; 100.0; 100.0 |] [| 0.0; 0.0; 0.0 |];
  check_case "tie below a slower stage" [| 90.0; 100.0; 100.0 |]
    [| 0.0; 0.0; 0.0 |];
  (* Beside a random stage the tie is worth Pr{X_2 <= 100} = 1/2, all
     of it to stage 0.  Monte-Carlo agrees, and gives stage 1 exactly
     nothing: a zero-sigma stage keeps its exact mean in every draw,
     though the random stage makes the covariance singular. *)
  let mus = [| 100.0; 100.0; 100.0 |] and sigmas = [| 0.0; 0.0; 5.0 |] in
  check_case "tie beside a random stage" mus sigmas;
  let p = pipeline mus sigmas in
  Array.iteri
    (fun i want ->
      check_float ~eps:1e-9
        (Printf.sprintf "tie beside a random stage: stage %d" i)
        want
        (Cr.probabilities_analytic_independent p).(i))
    [| 0.5; 0.0; 0.5 |];
  Alcotest.(check (float 0.0))
    "tie beside a random stage: MC stage 1" 0.0 (mc p).(1)

let test_entropy () =
  check_close ~rel:1e-12 "uniform entropy" (log 4.0)
    (Cr.entropy [| 0.25; 0.25; 0.25; 0.25 |]);
  check_float "degenerate entropy" 0.0 (Cr.entropy [| 1.0; 0.0; 0.0 |]);
  Alcotest.(check bool) "uniform maximal" true
    (Cr.entropy [| 0.25; 0.25; 0.25; 0.25 |] > Cr.entropy [| 0.7; 0.1; 0.1; 0.1 |]);
  check_raises_invalid "negative" (fun () -> ignore (Cr.entropy [| -0.1; 1.1 |]))

let test_yield_gradient_sign_and_ranking () =
  let p = dominated_pipeline () in
  let grad = Cr.yield_gradient_mu p ~t_target:145.0 in
  Array.iter
    (fun g -> Alcotest.(check bool) "gradients negative" true (g <= 0.0))
    grad;
  (* The slow stage dominates the gradient: speeding it buys the most. *)
  Alcotest.(check bool) "slowest has steepest gradient" true
    (abs_float grad.(1) > abs_float grad.(0)
    && abs_float grad.(1) > abs_float grad.(2))

let test_gradient_matches_finite_difference () =
  let mus = [| 100.0; 104.0; 97.0 |] in
  let build mus =
    P.make
      (Array.map (fun mu -> Stage.of_moments ~mu ~sigma:5.0 ()) mus)
      ~corr:(C.independent ~n:3)
  in
  let t_target = 108.0 in
  let grad = Cr.yield_gradient_mu (build mus) ~t_target in
  let h = 1e-4 in
  Array.iteri
    (fun i g ->
      let bumped = Array.copy mus in
      bumped.(i) <- bumped.(i) +. h;
      let fd =
        (Spv_core.Yield.independent_exact (build bumped) ~t_target
        -. Spv_core.Yield.independent_exact (build mus) ~t_target)
        /. h
      in
      check_close ~rel:1e-3 (Printf.sprintf "stage %d finite diff" i) fd g)
    grad

let suite =
  [
    quick "probabilities sum to 1" test_probabilities_sum_to_one;
    slow "balanced is uniform" test_balanced_is_uniform;
    quick "dominated concentrates" test_dominated_concentrates;
    slow "analytic matches MC" test_analytic_matches_mc;
    quick "analytic ties to the lowest index" test_analytic_ties_lowest_index;
    quick "entropy" test_entropy;
    quick "gradient sign and ranking" test_yield_gradient_sign_and_ranking;
    quick "gradient matches finite difference" test_gradient_matches_finite_difference;
  ]
