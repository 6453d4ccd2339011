open Helpers
module Ssta = Spv_circuit.Ssta
module G = Spv_circuit.Generators
module Gd = Spv_process.Gate_delay
module Tech = Spv_process.Tech
module D = Spv_stats.Descriptive

let tech = Tech.bptm70
let ff = Spv_process.Flipflop.default tech

module Engine = Spv_engine.Engine

(* Gate-level Monte-Carlo through the engine: [n] delays of one stage
   at a single die location, or the per-stage matrix of a pipeline. *)
let stage_delays ?exact ?ff ~seed tech net ~n =
  Engine.gate_level_delays ?exact ~seed
    (Engine.Ctx.of_circuits ?ff tech [| net |])
    ~n

let per_stage_samples ?ff ~seed tech nets ~n =
  Engine.gate_level_stage_samples ~seed
    (Engine.Ctx.of_circuits ?ff tech nets)
    ~n

let test_analytic_matches_sta () =
  let net = G.inverter_chain ~depth:8 () in
  let an = Ssta.analyse_stage tech net in
  check_close ~rel:1e-12 "comb nominal = critical delay"
    an.Ssta.nominal.Spv_circuit.Sta.delay an.Ssta.comb.Gd.nominal

let test_ff_included () =
  let net = G.inverter_chain ~depth:8 () in
  let without = (Ssta.analyse_stage tech net).Ssta.total in
  let with_ff = (Ssta.analyse_stage ~ff tech net).Ssta.total in
  check_close ~rel:1e-12 "ff adds overhead"
    (without.Gd.nominal +. Spv_process.Flipflop.nominal_overhead ff)
    with_ff.Gd.nominal

let test_mc_agrees_with_analytic_chain () =
  (* Single-path circuit: the analytic critical-path composition is
     exact, so MC must agree on both moments. *)
  let net = G.inverter_chain ~depth:10 () in
  let g = Ssta.stage_gaussian ~ff tech net in
  let xs = stage_delays ~ff ~seed:110 tech net ~n:8000 in
  let mu = Spv_stats.Gaussian.mu g and sigma = Spv_stats.Gaussian.sigma g in
  check_in_range "mean" ~lo:(mu -. (0.01 *. mu)) ~hi:(mu +. (0.01 *. mu))
    (D.mean xs);
  check_in_range "std" ~lo:(0.93 *. sigma) ~hi:(1.07 *. sigma) (D.std xs)

let test_mc_mean_dominates_for_multipath () =
  (* With many near-critical paths the true mean exceeds the single
     critical-path estimate (max of several correlated paths). *)
  let net = G.c432 () in
  let g = Ssta.stage_gaussian tech net in
  let xs = stage_delays ~seed:111 tech net ~n:2000 in
  Alcotest.(check bool) "MC mean >= analytic mean (within noise)" true
    (D.mean xs >= Spv_stats.Gaussian.mu g *. 0.995)

let test_no_variation_is_deterministic () =
  let t0 = Tech.no_variation tech in
  let net = G.inverter_chain ~depth:6 () in
  let xs = stage_delays ~seed:112 t0 net ~n:16 in
  let nominal = (Spv_circuit.Sta.run t0 net).Spv_circuit.Sta.delay in
  Array.iter (fun x -> check_close ~rel:1e-12 "all samples nominal" nominal x) xs

let test_pipeline_max_property () =
  (* Pipeline MC samples must dominate each constituent stage's
     samples drawn under the same seed schedule in expectation. *)
  let nets = G.inverter_chain_pipeline ~stages:4 ~depth:6 () in
  let per_stage = per_stage_samples ~ff ~seed:113 tech nets ~n:3000 in
  let tp =
    Array.init 3000 (fun t ->
        Array.fold_left (fun acc s -> Float.max acc s.(t)) neg_infinity per_stage)
  in
  let stage_mean = D.mean per_stage.(0) in
  Alcotest.(check bool) "max mean above stage mean" true
    (D.mean tp >= stage_mean);
  (* And every sample is >= the stage's sample. *)
  let ok = ref true in
  for t = 0 to 2999 do
    if tp.(t) < per_stage.(2).(t) then ok := false
  done;
  Alcotest.(check bool) "pointwise max" true !ok

let test_stage_correlation_from_components () =
  (* Under inter-only variation stages are almost perfectly
     correlated; under random-only they are nearly independent. *)
  let check_tech tech ~lo ~hi label =
    let nets = G.inverter_chain_pipeline ~stages:2 ~depth:8 () in
    let per_stage =
      per_stage_samples ~ff:(Spv_process.Flipflop.default tech) ~seed:114 tech
        nets ~n:4000
    in
    let rho =
      Spv_stats.Correlation.sample_correlation per_stage.(0) per_stage.(1)
    in
    check_in_range label ~lo ~hi rho
  in
  let inter_only =
    let t = Tech.no_variation tech in
    Tech.with_inter_vth t ~sigma_mv:40.0
  in
  let random_only =
    let t = Tech.no_variation tech in
    Tech.with_random_vth t ~sigma_mv:30.0
  in
  check_tech inter_only ~lo:0.97 ~hi:1.0 "inter-only highly correlated";
  check_tech random_only ~lo:(-0.1) ~hi:0.1 "random-only uncorrelated"

let test_exact_factor_mode () =
  (* The exact alpha-power mode must produce slightly different (and
     right-skewed) samples, but similar location. *)
  let net = G.inverter_chain ~depth:8 () in
  let lin = stage_delays ~ff ~seed:115 tech net ~n:4000 in
  let ext = stage_delays ~ff ~exact:true ~seed:115 tech net ~n:4000 in
  check_in_range "means close" ~lo:0.97 ~hi:1.03 (D.mean ext /. D.mean lin);
  Alcotest.(check bool) "exact more right-skewed" true
    (D.skewness ext > D.skewness lin -. 0.05)

(* The fast pass is the [delay] of [run_with_factors] bit for bit, on
   multi-input gates and random factors. *)
let test_late_delay_matches_run_with_factors () =
  let rng = Spv_stats.Rng.create ~seed:61 in
  List.iter
    (fun net ->
      let n = Spv_circuit.Netlist.n_nodes net in
      let delays = Float.Array.make n 0.0 and arrival = Float.Array.make n 0.0 in
      for _ = 1 to 20 do
        let factors = Array.init n (fun _ -> 0.5 +. Spv_stats.Rng.float rng) in
        Array.iteri
          (fun i f ->
            Float.Array.set delays i (Spv_circuit.Sta.gate_delay tech net i *. f))
          factors;
        Alcotest.(check int64) "same bits"
          (Int64.bits_of_float
             (Spv_circuit.Sta.run_with_factors tech net ~factors)
               .Spv_circuit.Sta.delay)
          (Int64.bits_of_float (Spv_circuit.Sta.late_delay net ~delays ~arrival))
      done)
    [ G.c432 (); G.ripple_carry_adder ~bits:6; G.decoder ~select:3 () ]

let test_linear_trial_allocation () =
  let nets = Array.init 4 (fun _ -> G.c432 ()) in
  let s = Ssta.sampler (Ssta.plan ~ff tech nets) in
  let rng = Spv_stats.Rng.create ~seed:62 in
  let words =
    words_per_call ~n:300 (fun () -> ignore (Ssta.draw_pipeline_delay s rng))
  in
  (* One boxed float per stage from the timing pass plus the result:
     nothing per gate. *)
  check_in_range "words per trial" ~lo:0.0 ~hi:16.0 words

let suite =
  [
    quick "analytic matches STA" test_analytic_matches_sta;
    quick "ff overhead included" test_ff_included;
    slow "MC agrees on chain" test_mc_agrees_with_analytic_chain;
    quick "no variation is deterministic" test_no_variation_is_deterministic;
    slow "multipath mean domination" test_mc_mean_dominates_for_multipath;
    slow "pipeline max property" test_pipeline_max_property;
    slow "stage correlation decomposition" test_stage_correlation_from_components;
    slow "exact factor mode" test_exact_factor_mode;
    quick "late_delay matches run_with_factors"
      test_late_delay_matches_run_with_factors;
    quick "linear trial allocation" test_linear_trial_allocation;
  ]
