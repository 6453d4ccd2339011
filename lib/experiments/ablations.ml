module Balance = Spv_core.Balance
module Criticality = Spv_core.Stage_criticality

let criticality_study () =
  let s = Fig7_8.setup () in
  let c = Fig7_8.compare_at s ~target_yield:0.8 in
  let study label (sol : Balance.solution) =
    let pipeline = Balance.pipeline_of s.Fig7_8.models ~delays:sol.Balance.delays in
    let probs = Criticality.probabilities pipeline (Common.rng ()) in
    (label, probs, Criticality.entropy probs)
  in
  [
    study "balanced" c.Fig7_8.balanced;
    study "unbalanced-best" c.Fig7_8.unbalanced_best;
    study "unbalanced-worst" c.Fig7_8.unbalanced_worst;
  ]

let correlation_length_sweep () =
  let tech = Common.mixed_tech () in
  let ff = Spv_process.Flipflop.default tech in
  let nets = Spv_circuit.Generators.inverter_chain_pipeline ~stages:5 ~depth:8 () in
  (* Fixed target: the 85% quantile at the default length, so the yield
     column shows the effect of correlation alone. *)
  let reference =
    Spv_core.Pipeline.delay_distribution (Spv_core.Pipeline.of_circuits ~ff tech nets)
  in
  let t_target = Spv_stats.Gaussian.quantile reference ~p:0.85 in
  Array.map
    (fun corr_length ->
      let tech = { tech with Spv_process.Tech.corr_length } in
      let p = Spv_core.Pipeline.of_circuits ~ff tech nets in
      let tp = Spv_core.Pipeline.delay_distribution p in
      ( corr_length,
        Spv_stats.Gaussian.sigma tp,
        Spv_core.Yield.clark_gaussian p ~t_target ))
    [| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 |]

let sizer_policy_sweep () =
  let tech = Common.base_tech in
  let ff = Spv_process.Flipflop.default tech in
  let z = Spv_stats.Special.big_phi_inv 0.9457 in
  let net = Spv_circuit.Generators.c432 () in
  let slow = Spv_sizing.Lagrangian.relaxed_delay ~ff tech net ~z in
  let fast = Spv_sizing.Lagrangian.minimum_achievable_delay ~ff tech net ~z in
  let t_target = fast +. (0.35 *. (slow -. fast)) in
  Array.map
    (fun theta ->
      let options =
        { Spv_sizing.Lagrangian.default_options with
          Spv_sizing.Lagrangian.theta_fraction = theta }
      in
      let r = Spv_sizing.Lagrangian.size_stage ~options ~ff tech net ~t_target ~z in
      ( theta,
        r.Spv_sizing.Lagrangian.area,
        r.Spv_sizing.Lagrangian.iterations,
        r.Spv_sizing.Lagrangian.converged ))
    [| 0.01; 0.03; 0.05; 0.10; 0.20 |]

let ssta_method_study () =
  let tech = Common.base_tech in
  let ff = Spv_process.Flipflop.default tech in
  List.map
    (fun net ->
      let path, block =
        Spv_circuit.Block_ssta.compare_with_path_based ~ff tech net
      in
      let mc =
        Spv_engine.Engine.gate_level_delays ~seed:Common.seed
          (Spv_engine.Engine.Ctx.of_circuits ~ff tech [| net |])
          ~n:4000
      in
      ( Spv_circuit.Netlist.name net,
        path,
        block,
        Spv_stats.Descriptive.mean mc,
        Spv_stats.Descriptive.std mc ))
    [
      Spv_circuit.Generators.inverter_chain ~depth:10 ();
      Spv_circuit.Generators.alu_slice ~bits:8 ();
      Spv_circuit.Generators.c432 ();
    ]

let leakage_tax_sweep () =
  let net = Spv_circuit.Generators.c432 () in
  Array.map
    (fun sigma_mv ->
      let tech =
        Spv_process.Tech.with_random_vth
          (Spv_process.Tech.no_variation Common.base_tech)
          ~sigma_mv
      in
      let p = Spv_circuit.Power.analyse tech net in
      let mc =
        Spv_circuit.Power.leakage_mc tech net (Common.rng ()) ~n:2000
      in
      ( sigma_mv,
        p.Spv_circuit.Power.leakage_mean /. p.Spv_circuit.Power.leakage_nominal,
        Spv_stats.Descriptive.mean mc /. p.Spv_circuit.Power.leakage_nominal ))
    [| 0.0; 20.0; 40.0; 60.0; 80.0 |]

let dual_vth_study () =
  let tech = Common.base_tech in
  let ff = Spv_process.Flipflop.default tech in
  let z = Spv_stats.Special.big_phi_inv 0.95 in
  let net = Spv_circuit.Generators.c432 () in
  let a0 =
    Spv_sizing.Multi_vth.all_low net ~delay_penalty:1.15 ~vth_offset:0.08
  in
  let d0 = Spv_sizing.Multi_vth.stat_delay ~ff tech net a0 ~z in
  List.map
    (fun slack ->
      let r =
        Spv_sizing.Multi_vth.optimise ~ff tech net ~t_target:(slack *. d0) ~z
      in
      ( slack,
        r.Spv_sizing.Multi_vth.swapped,
        1.0
        -. (r.Spv_sizing.Multi_vth.leakage_after
           /. r.Spv_sizing.Multi_vth.leakage_before) ))
    [ 1.00; 1.05; 1.15 ]

let node_scaling_study () =
  let nets = Spv_circuit.Generators.inverter_chain_pipeline ~stages:5 ~depth:8 () in
  List.map
    (fun tech ->
      let ff = Spv_process.Flipflop.default tech in
      let p = Spv_core.Pipeline.of_circuits ~ff tech nets in
      let stage = Spv_core.Pipeline.stage p 0 in
      let tp = Spv_core.Pipeline.delay_distribution p in
      let nominal = Spv_core.Pipeline.nominal_delay p in
      let t_target = 1.05 *. nominal in
      ( tech.Spv_process.Tech.name,
        100.0 *. Spv_core.Stage.variability stage,
        100.0 *. Spv_stats.Gaussian.sigma tp /. Spv_stats.Gaussian.mu tp,
        100.0 *. Spv_core.Yield.clark_gaussian p ~t_target ))
    Spv_process.Tech.scaling_nodes

let run () =
  Common.section "Ablations & extensions";
  Common.subsection
    "criticality concentration (supports the paper's §3.2 argument)";
  List.iter
    (fun (label, probs, entropy) ->
      Printf.printf "  %-18s P(critical) = [%s]   entropy = %.3f nats\n" label
        (String.concat "; "
           (Array.to_list (Array.map (Printf.sprintf "%.3f") probs)))
        entropy)
    (criticality_study ());
  Common.subsection "variance budget of the 5x8 mixed-variation pipeline";
  (let tech = Common.mixed_tech () in
   let ff = Spv_process.Flipflop.default tech in
   let nets = Spv_circuit.Generators.inverter_chain_pipeline ~stages:5 ~depth:8 () in
   let p = Spv_core.Pipeline.of_circuits ~ff tech nets in
   Format.printf "  %a@." Spv_core.Variance_budget.pp
     (Spv_core.Variance_budget.of_pipeline p));
  Common.subsection "spatial correlation length vs pipeline sigma / yield";
  Common.table_header [ "corr-length"; "sigma_T (ps)"; "yield %" ];
  Array.iter
    (fun (l, sigma, y) ->
      Common.table_row
        [ Printf.sprintf "%.2f" l; Printf.sprintf "%.2f" sigma; Common.pct y ])
    (correlation_length_sweep ());
  Common.subsection "sizer criticality-temperature policy";
  Common.table_header [ "theta"; "area"; "iterations"; "converged" ];
  Array.iter
    (fun (theta, area, iters, conv) ->
      Common.table_row
        [
          Printf.sprintf "%.2f" theta; Printf.sprintf "%.1f" area;
          string_of_int iters; string_of_bool conv;
        ])
    (sizer_policy_sweep ());
  Common.subsection "SSTA method: critical-path vs block-based vs MC";
  Common.table_header [ "circuit"; "path mu/sigma"; "block mu/sigma"; "MC mu/sigma" ];
  List.iter
    (fun (name, path, block, mc_mu, mc_std) ->
      let fmt g =
        Printf.sprintf "%.1f/%.2f" (Spv_stats.Gaussian.mu g)
          (Spv_stats.Gaussian.sigma g)
      in
      Common.table_row
        [ name; fmt path; fmt block; Printf.sprintf "%.1f/%.2f" mc_mu mc_std ])
    (ssta_method_study ());
  Common.subsection "dual-Vth assignment on c432 (criticality-guided)";
  Common.table_header [ "timing slack"; "high-Vth gates"; "leakage saved %" ];
  List.iter
    (fun (slack, swapped, saved) ->
      Common.table_row
        [ Printf.sprintf "%.2fx" slack;
          Printf.sprintf "%d/160" swapped;
          Printf.sprintf "%.0f" (100.0 *. saved) ])
    (dual_vth_study ());
  Common.subsection
    "technology scaling: same pipeline, 5% guardband clock";
  Common.table_header
    [ "node"; "stage s/m %"; "pipe s/m %"; "yield@1.05x %" ];
  List.iter
    (fun (name, sv, pv, y) ->
      Common.table_row
        [ name; Printf.sprintf "%.2f" sv; Printf.sprintf "%.2f" pv;
          Printf.sprintf "%.1f" y ])
    (node_scaling_study ());
  Common.subsection "leakage variation tax (mean / nominal)";
  Common.table_header [ "sigmaVth (mV)"; "analytic"; "Monte-Carlo" ];
  Array.iter
    (fun (s, a, m) ->
      Common.table_row
        [ Printf.sprintf "%.0f" s; Printf.sprintf "%.3f" a; Printf.sprintf "%.3f" m ])
    (leakage_tax_sweep ())
