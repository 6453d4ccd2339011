open Helpers
module I = Spv_stats.Importance
module Mvn = Spv_stats.Mvn
module C = Spv_stats.Correlation
module Rng = Spv_stats.Rng
module Engine = Spv_engine.Engine

(* The estimators run through the engine on a moments pipeline whose
   stage-delay MVN is the distribution under test. *)
let ctx ~mus ~sigmas ~corr =
  Engine.Ctx.of_pipeline
    (Spv_core.Pipeline.make
       (Array.mapi
          (fun i mu -> Spv_core.Stage.of_moments ~mu ~sigma:sigmas.(i) ())
          mus)
       ~corr)

let std_normal () =
  ctx ~mus:[| 0.0 |] ~sigmas:[| 1.0 |] ~corr:(C.independent ~n:1)

(* P{max_i X_i > threshold}: mixture importance sampling, or plain
   Monte-Carlo for reference. *)
let is_loss ~seed ~n ctx ~threshold =
  Engine.yield_loss ~method_:Engine.Importance ~seed ~n ctx ~t_target:threshold

let plain_loss ~seed ~n ctx ~threshold =
  Engine.yield_loss ~method_:Engine.Mc ~seed ~n ctx ~t_target:threshold

let test_single_gaussian_tail () =
  (* One dimension: P(X > mu + k sigma) has a closed form. *)
  let ctx = ctx ~mus:[| 100.0 |] ~sigmas:[| 5.0 |] ~corr:(C.independent ~n:1) in
  List.iter
    (fun k ->
      let threshold = 100.0 +. (k *. 5.0) in
      let e = is_loss ~seed:210 ~n:40_000 ctx ~threshold in
      let exact = Spv_stats.Special.big_phi (-.k) in
      check_in_range
        (Printf.sprintf "tail at %g sigma" k)
        ~lo:(0.93 *. exact) ~hi:(1.07 *. exact) e.Engine.value)
    [ 2.0; 3.0; 4.0; 5.0 ]

let test_deep_tail_beyond_plain_mc () =
  (* At 5 sigma (p ~ 2.9e-7) a 40k plain MC sees nothing; IS nails it. *)
  let ctx = std_normal () in
  let plain = plain_loss ~seed:211 ~n:40_000 ctx ~threshold:5.0 in
  check_float "plain MC blind" 0.0 plain.Engine.value;
  let is = is_loss ~seed:212 ~n:40_000 ctx ~threshold:5.0 in
  let exact = Spv_stats.Special.big_phi (-5.0) in
  check_in_range "IS sees it" ~lo:(0.9 *. exact) ~hi:(1.1 *. exact)
    is.Engine.value

let test_unbiased_vs_plain_in_easy_regime () =
  (* Where plain MC works, both estimators agree. *)
  let ctx =
    ctx ~mus:[| 10.0; 11.0; 9.5 |] ~sigmas:[| 1.0; 1.2; 0.8 |]
      ~corr:(C.uniform ~n:3 ~rho:0.4)
  in
  let threshold = 13.0 in
  let plain = plain_loss ~seed:213 ~n:200_000 ctx ~threshold in
  let is = is_loss ~seed:214 ~n:50_000 ctx ~threshold in
  let allow = 3.0 *. (plain.Engine.std_error +. is.Engine.std_error) in
  check_in_range "agree" ~lo:(plain.Engine.value -. allow)
    ~hi:(plain.Engine.value +. allow) is.Engine.value

let test_is_variance_advantage () =
  let ctx = std_normal () in
  let threshold = 4.0 in
  let is = is_loss ~seed:215 ~n:20_000 ctx ~threshold in
  let plain = plain_loss ~seed:216 ~n:20_000 ctx ~threshold in
  (* Relative precision: IS standard error per unit probability is far
     smaller (plain has almost no hits at 4 sigma). *)
  let exact = Spv_stats.Special.big_phi (-4.0) in
  Alcotest.(check bool) "IS relatively tighter" true
    (is.Engine.std_error /. exact < 0.1
    && (plain.Engine.value = 0.0 || plain.Engine.std_error /. exact > 0.5))

(* Effective sample size (sum w)^2 / sum w^2 of [n] kernel draws. *)
let kernel_ess plan ~seed ~n =
  let rng = Rng.create ~seed in
  let sum = ref 0.0 and sum_sq = ref 0.0 in
  for _ = 1 to n do
    let w = I.draw_weight plan rng in
    sum := !sum +. w;
    sum_sq := !sum_sq +. (w *. w)
  done;
  if !sum_sq = 0.0 then 0.0 else !sum *. !sum /. !sum_sq

let test_effective_samples_diagnostic () =
  let mvn = Mvn.create ~mus:[| 0.0 |] ~sigmas:[| 1.0 |] ~corr:(C.independent ~n:1) in
  let good = kernel_ess (I.plan mvn ~threshold:4.0) ~seed:217 ~n:10_000 in
  Alcotest.(check bool) "healthy ESS" true (good > 100.0);
  let engine = is_loss ~seed:217 ~n:10_000 (std_normal ()) ~threshold:4.0 in
  (match engine.Engine.ess with
  | Some ess ->
      Alcotest.(check bool) "engine reports healthy ESS" true (ess > 100.0)
  | None -> Alcotest.fail "importance estimate must report ess");
  (* A terrible shift (pointing away from the failure region) collapses
     the diagnostic. *)
  let bad =
    kernel_ess
      (I.plan ~z_shifts:[| [| -6.0 |] |] mvn ~threshold:4.0)
      ~seed:218 ~n:10_000
  in
  Alcotest.(check bool) "bad shift detected" true (bad < good)

let test_pipeline_integration () =
  (* Importance-sampled yield loss must match brute-force Monte-Carlo
     in a moderately rare regime, on a correlated pipeline. *)
  let stages =
    Array.init 4 (fun i ->
        Spv_core.Stage.of_moments ~mu:(100.0 +. float_of_int i) ~sigma:4.0 ())
  in
  let p =
    Spv_core.Pipeline.make stages ~corr:(C.uniform ~n:4 ~rho:0.3)
  in
  let t_target = 118.0 in
  let ctx = Engine.Ctx.of_pipeline p in
  let e = is_loss ~seed:219 ~n:60_000 ctx ~threshold:t_target in
  (* Reference by brute force with a big plain MC. *)
  let plain = plain_loss ~seed:220 ~n:2_000_000 ctx ~threshold:t_target in
  check_in_range "matches brute force"
    ~lo:(0.85 *. plain.Engine.value) ~hi:(1.15 *. plain.Engine.value)
    e.Engine.value

let test_highly_correlated_pipeline () =
  (* Regression: with strongly correlated stages the dominant failure
     mode is the shared factor lifting every stage together; a
     component-at-the-barrier-others-at-mean proposal misses it by
     orders of magnitude.  The design-point mixture must track plain
     MC in the verifiable regime. *)
  let ctx =
    ctx ~mus:[| 100.0; 101.0; 99.0; 100.5 |]
      ~sigmas:[| 8.0; 8.0; 8.0; 8.0 |]
      ~corr:(C.uniform ~n:4 ~rho:0.9)
  in
  let threshold = 118.0 in
  let plain = plain_loss ~seed:221 ~n:1_000_000 ctx ~threshold in
  let is = is_loss ~seed:222 ~n:60_000 ctx ~threshold in
  check_in_range "correlated tail matches"
    ~lo:(0.9 *. plain.Engine.value) ~hi:(1.1 *. plain.Engine.value)
    is.Engine.value

let test_validation () =
  let mvn = Mvn.create ~mus:[| 0.0 |] ~sigmas:[| 1.0 |] ~corr:(C.independent ~n:1) in
  check_raises_invalid "n = 0" (fun () ->
      ignore (is_loss ~seed:1 ~n:0 (std_normal ()) ~threshold:1.0));
  check_raises_invalid "shift dims" (fun () ->
      ignore (I.plan ~z_shifts:[| [| 1.0; 2.0 |] |] mvn ~threshold:1.0))

let suite =
  [
    slow "single gaussian tails" test_single_gaussian_tail;
    slow "deep tail beyond plain MC" test_deep_tail_beyond_plain_mc;
    slow "unbiased vs plain" test_unbiased_vs_plain_in_easy_regime;
    slow "variance advantage" test_is_variance_advantage;
    quick "effective samples diagnostic" test_effective_samples_diagnostic;
    slow "pipeline integration" test_pipeline_integration;
    slow "highly correlated pipeline" test_highly_correlated_pipeline;
    quick "validation" test_validation;
  ]
