open Helpers
module Ff = Spv_process.Flipflop
module Ssta = Spv_circuit.Ssta
module Gen = Spv_circuit.Generators
module Tech = Spv_process.Tech
module Gd = Spv_process.Gate_delay

(* --- Flipflop -------------------------------------------------------- *)

let test_default_ff () =
  let tech = Tech.bptm70 in
  let ff = Ff.default tech in
  check_close ~rel:1e-12 "clk-to-q" (4.0 *. tech.Tech.tau)
    ff.Ff.clk_to_q.Gd.nominal;
  check_close ~rel:1e-12 "setup" (2.0 *. tech.Tech.tau) ff.Ff.setup.Gd.nominal;
  check_close ~rel:1e-12 "overhead" (6.0 *. tech.Tech.tau) (Ff.nominal_overhead ff)

let test_ff_validation () =
  let tech = Tech.bptm70 in
  check_raises_invalid "negative tcq" (fun () ->
      Ff.make tech ~clk_to_q_ps:(-1.0) ~setup_ps:1.0 ~size:1.0);
  check_raises_invalid "zero size" (fun () ->
      Ff.make tech ~clk_to_q_ps:1.0 ~setup_ps:1.0 ~size:0.0)

let test_ff_overhead_composition () =
  let tech = Tech.bptm70 in
  let ff = Ff.make tech ~clk_to_q_ps:20.0 ~setup_ps:10.0 ~size:2.0 in
  let o = Ff.overhead ff in
  check_float "nominal" 30.0 o.Gd.nominal;
  (* Same locale: inter components add linearly. *)
  check_close ~rel:1e-12 "inter adds"
    (ff.Ff.clk_to_q.Gd.sigma_inter +. ff.Ff.setup.Gd.sigma_inter)
    o.Gd.sigma_inter

let test_ff_no_variation () =
  let ff = Ff.default (Tech.no_variation Tech.bptm70) in
  check_float "no sigma" 0.0 (Gd.total_sigma (Ff.overhead ff))

(* --- The gate-level kernel ------------------------------------------- *)

let test_sampler_basic () =
  let tech = Tech.bptm70 in
  let nets = Array.init 4 (fun _ -> Gen.inverter_chain ~depth:3 ()) in
  let s = Ssta.sampler (Ssta.plan tech nets) in
  let rng = Spv_stats.Rng.create ~seed:100 in
  let out = Float.Array.make 4 nan in
  Ssta.draw_stage_delays_into s rng out;
  Alcotest.(check bool) "one positive delay per stage" true
    (Float.Array.for_all (fun d -> Float.is_finite d && d > 0.0) out)

let test_world_shares_inter () =
  (* Only the inter-die shift varies: every stage of one trial moves
     the same way, bit for bit. *)
  let tech = Tech.with_inter_vth (Tech.no_variation Tech.bptm70) ~sigma_mv:40.0 in
  let nets = Array.init 2 (fun _ -> Gen.inverter_chain ~depth:3 ()) in
  let s = Ssta.sampler (Ssta.plan ~pitch:5.0 tech nets) in
  let rng = Spv_stats.Rng.create ~seed:101 in
  let out = Float.Array.make 2 0.0 in
  for _ = 1 to 20 do
    Ssta.draw_stage_delays_into s rng out;
    check_float ~eps:0.0 "same delay" (Float.Array.get out 0)
      (Float.Array.get out 1)
  done;
  let nominal = (Spv_circuit.Sta.run tech nets.(0)).Spv_circuit.Sta.delay in
  Alcotest.(check bool) "the shift moved the stage" true
    (Float.Array.get out 0 <> nominal)

let test_delay_factor_mean () =
  let tech = Tech.bptm70 in
  let xs = inverter_factors tech ~seed:102 ~n:20_000 in
  check_in_range "mean factor ~ 1" ~lo:0.99 ~hi:1.01
    (Spv_stats.Descriptive.mean xs);
  (* Combined relative sigma: inter + sys + rand in quadrature. *)
  let expected =
    sqrt
      ((Spv_process.Variation.rel_sigma_inter tech ** 2.0)
      +. (Spv_process.Variation.rel_sigma_sys tech ** 2.0)
      +. (Spv_process.Variation.rel_sigma_rand tech ~size:1.0 ** 2.0))
  in
  check_in_range "factor std" ~lo:(0.95 *. expected) ~hi:(1.05 *. expected)
    (Spv_stats.Descriptive.std xs)

let test_location_bounds () =
  (* A stage is a die location: the kernel writes exactly one delay per
     stage and needs at least one. *)
  let tech = Tech.bptm70 in
  let nets = Array.init 2 (fun _ -> Gen.inverter_chain ~depth:2 ()) in
  let s = Ssta.sampler (Ssta.plan tech nets) in
  let rng = Spv_stats.Rng.create ~seed:103 in
  check_raises_invalid "too few locations" (fun () ->
      Ssta.draw_stage_delays_into s rng (Float.Array.make 1 0.0));
  check_raises_invalid "too many locations" (fun () ->
      Ssta.draw_stage_delays_into s rng (Float.Array.make 5 0.0));
  check_raises_invalid "no location" (fun () -> Ssta.plan tech [||])

let suite =
  [
    quick "default flip-flop" test_default_ff;
    quick "flip-flop validation" test_ff_validation;
    quick "overhead composition" test_ff_overhead_composition;
    quick "no-variation flip-flop" test_ff_no_variation;
    quick "sampler basics" test_sampler_basic;
    quick "world shares inter" test_world_shares_inter;
    slow "delay factor moments" test_delay_factor_mean;
    quick "location bounds" test_location_bounds;
  ]
