open Helpers
module A = Spv_core.Adaptive
module P = Spv_core.Pipeline
module Stage = Spv_core.Stage
module Gd = Spv_process.Gate_delay

(* Pipelines with controllable component mixes. *)
let mk_pipeline ~inter ~sys ~rand =
  let stages =
    Array.init 4 (fun i ->
        Stage.make
          ~name:(string_of_int i)
          ~position:(Spv_process.Spatial.position ~x:(float_of_int i) ~y:0.0)
          (Gd.make ~nominal:100.0 ~sigma_inter:inter ~sigma_sys:sys
             ~sigma_rand:rand))
  in
  P.of_stages ~corr_length:2.0 stages

let test_zero_range_is_baseline () =
  let p = mk_pipeline ~inter:6.0 ~sys:2.0 ~rand:2.0 in
  let t_target = 112.0 in
  check_close ~rel:2e-3 "no ABB = plain yield"
    (Spv_core.Yield.clark_gaussian p ~t_target)
    (A.yield_with_abb ~policy:{ A.range = 0.0 } p ~t_target)

let test_abb_rescues_inter_dominated () =
  let p = mk_pipeline ~inter:8.0 ~sys:1.0 ~rand:1.0 in
  let t_target = 108.0 in
  let before = Spv_core.Yield.clark_gaussian p ~t_target in
  let after = A.yield_with_abb p ~t_target in
  Alcotest.(check bool) "substantial gain" true (after > before +. 0.05);
  (* With the inter component cancelled, yield approaches that of the
     residual-only pipeline. *)
  let residual_only = mk_pipeline ~inter:0.0 ~sys:1.0 ~rand:1.0 in
  let ceiling = Spv_core.Yield.clark_gaussian residual_only ~t_target in
  Alcotest.(check bool) "below residual ceiling" true (after <= ceiling +. 1e-3)

let test_abb_useless_for_random_only () =
  let p = mk_pipeline ~inter:0.0 ~sys:0.0 ~rand:6.0 in
  let t_target = 110.0 in
  check_close ~rel:2e-3 "no inter, no gain"
    (Spv_core.Yield.clark_gaussian p ~t_target)
    (A.yield_with_abb p ~t_target)

let test_gain_nonnegative_and_monotone_in_range () =
  let p = mk_pipeline ~inter:6.0 ~sys:2.0 ~rand:2.0 in
  let t_target = 110.0 in
  let y r = A.yield_with_abb ~policy:{ A.range = r } p ~t_target in
  Alcotest.(check bool) "monotone in range" true
    (y 0.02 <= y 0.05 +. 1e-9 && y 0.05 <= y 0.15 +. 1e-9);
  Alcotest.(check bool) "gain nonnegative" true
    (A.yield_gain p ~t_target >= -1e-6)

let test_matches_mc () =
  let p = mk_pipeline ~inter:6.0 ~sys:2.0 ~rand:3.0 in
  let t_target = 109.0 in
  let analytic = A.yield_with_abb p ~t_target in
  let mc =
    (Spv_engine.Engine.abb_mc_yield ~seed:230
       (Spv_engine.Engine.Ctx.of_pipeline p) ~n:150_000 ~t_target)
      .Spv_engine.Engine.value
  in
  check_in_range "analytic vs MC" ~lo:(mc -. 0.01) ~hi:(mc +. 0.01) analytic

let test_leakage_overhead () =
  let tech = Spv_process.Tech.bptm70 in
  let p = mk_pipeline ~inter:6.0 ~sys:2.0 ~rand:2.0 in
  let none = A.leakage_overhead ~policy:{ A.range = 0.0 } tech p in
  check_close ~rel:1e-9 "disabled = 1" 1.0 none;
  let active = A.leakage_overhead tech p in
  (* Bias is applied in both directions; the exponential makes the
     forward-bias (leaky) side dominate slightly. *)
  Alcotest.(check bool) "overhead near but above 1" true
    (active > 1.0 && active < 2.0)

let test_validation () =
  let p = mk_pipeline ~inter:1.0 ~sys:1.0 ~rand:1.0 in
  check_raises_invalid "negative range" (fun () ->
      ignore (A.yield_with_abb ~policy:{ A.range = -0.1 } p ~t_target:100.0))

let suite =
  [
    quick "zero range is baseline" test_zero_range_is_baseline;
    quick "rescues inter-dominated" test_abb_rescues_inter_dominated;
    quick "useless for random-only" test_abb_useless_for_random_only;
    quick "monotone in range" test_gain_nonnegative_and_monotone_in_range;
    slow "matches MC" test_matches_mc;
    quick "leakage overhead" test_leakage_overhead;
    quick "validation" test_validation;
  ]
