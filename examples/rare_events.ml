(* Estimating deep-tail yield loss, and buying it back after silicon.

   At aggressive clock targets the failure probability is so small that
   plain Monte-Carlo never sees a failing die.  This example compares
   the estimators the library provides (plain MC, Latin-hypercube MC,
   mixture importance sampling, the Clark analytic), then shows how
   adaptive body bias recovers yield post-silicon and what it costs in
   leakage.

   Run with:  dune exec examples/rare_events.exe *)

module Y = Spv_core.Yield
module A = Spv_core.Adaptive
module Rng = Spv_stats.Rng
module Engine = Spv_engine.Engine

let () =
  let tech = Spv_process.Tech.bptm70 in
  let ff = Spv_process.Flipflop.default tech in
  let nets = Spv_circuit.Generators.inverter_chain_pipeline ~stages:8 ~depth:10 () in
  let pipeline = Spv_core.Pipeline.of_circuits ~ff tech nets in
  let ctx = Engine.Ctx.of_pipeline pipeline in
  let tp = Spv_core.Pipeline.delay_distribution pipeline in
  Printf.printf "pipeline delay ~ N(%.1f, %.2f) ps\n"
    (Spv_stats.Gaussian.mu tp) (Spv_stats.Gaussian.sigma tp);

  Printf.printf
    "\nYield-loss estimates (40k samples each; failure = delay > T):\n";
  Printf.printf "  %10s %14s %14s %14s %14s\n" "T (ps)" "analytic" "plain MC"
    "LHS MC" "importance";
  List.iter
    (fun k ->
      let t_target =
        Spv_stats.Gaussian.mu tp +. (k *. Spv_stats.Gaussian.sigma tp)
      in
      let analytic = 1.0 -. Y.clark_gaussian pipeline ~t_target in
      let loss method_ seed =
        (Engine.yield_loss ~method_ ~seed ~n:40_000 ctx ~t_target).Engine.value
      in
      let plain = loss Engine.Mc 1 in
      let lhs =
        1.0 -. Y.monte_carlo_lhs pipeline (Rng.create ~seed:2) ~n:40_000 ~t_target
      in
      let is = loss Engine.Importance 3 in
      Printf.printf "  %10.1f %14.2e %14.2e %14.2e %14.2e\n" t_target analytic
        plain lhs is)
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Printf.printf
    "  (plain and LHS read 0.00e+00 beyond ~3.5 sigma: no failing die in\n\
    \   40k draws; importance sampling still resolves the tail.)\n";

  (* Post-silicon recovery. *)
  let t_target = Spv_core.Yield.target_delay_for_yield pipeline ~yield:0.7 in
  Printf.printf
    "\nAdaptive body bias at T = %.1f ps (70%% yield without ABB):\n" t_target;
  List.iter
    (fun range ->
      let policy = { A.range } in
      let y = A.yield_with_abb ~policy pipeline ~t_target in
      let leak = A.leakage_overhead ~policy tech pipeline in
      Printf.printf
        "  bias range +-%3.0f%%: yield %.1f%% (gain %+.1f pts), mean leakage x%.2f\n"
        (100.0 *. range) (100.0 *. y)
        (100.0 *. (y -. 0.7))
        leak)
    [ 0.0; 0.05; 0.10; 0.20 ]
