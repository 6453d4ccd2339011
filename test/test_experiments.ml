open Helpers
module E = Spv_experiments

(* End-to-end checks that each reproduced table/figure has the paper's
   qualitative shape (who wins, which way the trends point). *)

let test_fig2_model_matches_mc () =
  List.iter
    (fun variant ->
      let r = E.Fig2.compute ~n_samples:1500 variant in
      let model_mu = Spv_stats.Gaussian.mu r.E.Fig2.model in
      let model_sigma = Spv_stats.Gaussian.sigma r.E.Fig2.model in
      check_in_range
        (E.Fig2.variant_name variant ^ " mean within 1%")
        ~lo:(0.99 *. model_mu) ~hi:(1.01 *. model_mu) r.E.Fig2.mc_mean;
      check_in_range
        (E.Fig2.variant_name variant ^ " sigma within 25%")
        ~lo:(0.75 *. model_sigma) ~hi:(1.25 *. model_sigma) r.E.Fig2.mc_std)
    [ E.Fig2.Random_only; E.Fig2.Inter_only; E.Fig2.Mixed ]

let test_fig2_variance_ordering () =
  (* Inter-die variation dominates the spread (paper Fig. 2a vs 2b). *)
  let ra = E.Fig2.compute ~n_samples:1000 E.Fig2.Random_only in
  let rb = E.Fig2.compute ~n_samples:1000 E.Fig2.Inter_only in
  Alcotest.(check bool) "inter spread much larger" true
    (rb.E.Fig2.mc_std > 3.0 *. ra.E.Fig2.mc_std)

let test_fig3_error_trends () =
  let pts = E.Fig3.error_vs_stages ~stage_counts:[| 2; 8; 24 |] () in
  (* Mean error stays tiny; sigma error grows with the stage count. *)
  Array.iter
    (fun p ->
      check_in_range "mean error below 0.5%" ~lo:0.0 ~hi:0.5 p.E.Fig3.mean_err_pct)
    pts;
  Alcotest.(check bool) "sigma error grows" true
    (pts.(2).E.Fig3.std_err_pct > pts.(1).E.Fig3.std_err_pct
    && pts.(1).E.Fig3.std_err_pct > pts.(0).E.Fig3.std_err_pct);
  check_float "two stages exact" 0.0 pts.(0).E.Fig3.std_err_pct

let test_fig3_ordering_ablation_runs () =
  let results = E.Fig3.ordering_ablation () in
  Alcotest.(check int) "three orders" 3 (List.length results);
  List.iter
    (fun (_, mean_err, std_err) ->
      check_in_range "mean err sane" ~lo:0.0 ~hi:1.0 mean_err;
      check_in_range "std err sane" ~lo:0.0 ~hi:20.0 std_err)
    results

let test_fig4_curves () =
  let c = E.Fig4.compute () in
  let n = Array.length c.Spv_core.Design_space.mus in
  Alcotest.(check bool) "has points" true (n > 10);
  (* Bounds shrink as mu grows. *)
  Alcotest.(check bool) "relaxed decreasing" true
    (c.Spv_core.Design_space.relaxed.(0) > c.Spv_core.Design_space.relaxed.(n - 1))

let test_fig5_shapes () =
  let _, series_a = E.Fig5.panel_a ~depths:[| 5; 20; 40 |] () in
  let random = List.assoc "random-only" series_a in
  let inter = List.assoc "inter40mV-only" series_a in
  Alcotest.(check bool) "random falls with depth" true
    (random.(2) < 0.5 *. random.(0));
  check_in_range "inter flat" ~lo:0.99 ~hi:1.01 inter.(2);
  let _, series_c = E.Fig5.panel_c ~stage_counts:[| 2; 30 |] () in
  let c0 = List.assoc "interVth=0mV" series_c in
  let c40 = List.assoc "interVth=40mV" series_c in
  Alcotest.(check bool) "intra-only rises with stages" true (c0.(1) > c0.(0));
  Alcotest.(check bool) "inter-dominated falls" true (c40.(1) < c40.(0))

let test_table1_rows () =
  List.iter
    (fun config ->
      let r = E.Table1.compute ~n_samples:1500 config in
      check_in_range
        (r.E.Table1.config.E.Table1.label ^ " model mean within 1%")
        ~lo:(0.99 *. r.E.Table1.mc_mu) ~hi:(1.01 *. r.E.Table1.mc_mu)
        r.E.Table1.model_mu;
      check_in_range
        (r.E.Table1.config.E.Table1.label ^ " yields within 8 points")
        ~lo:(r.E.Table1.mc_yield -. 0.08) ~hi:(r.E.Table1.mc_yield +. 0.08)
        r.E.Table1.model_yield)
    (E.Table1.default_configs ())

let fig7_setup = lazy (E.Fig7_8.setup ())

let test_fig7_unbalancing_helps () =
  let s = Lazy.force fig7_setup in
  let c = E.Fig7_8.compare_at s ~target_yield:0.8 in
  let b = c.E.Fig7_8.balanced and u = c.E.Fig7_8.unbalanced_best in
  check_in_range "balanced hits its target" ~lo:0.795 ~hi:0.81
    b.Spv_core.Balance.yield;
  Alcotest.(check bool) "same area" true
    (u.Spv_core.Balance.area <= b.Spv_core.Balance.area +. 1e-6);
  Alcotest.(check bool) "unbalanced strictly better" true
    (u.Spv_core.Balance.yield > b.Spv_core.Balance.yield +. 0.01);
  Alcotest.(check bool) "worst is worse" true
    (c.E.Fig7_8.unbalanced_worst.Spv_core.Balance.yield
    < b.Spv_core.Balance.yield)

let test_fig7_ri_identifies_cheap_stage () =
  let s = Lazy.force fig7_setup in
  let c = E.Fig7_8.compare_at s ~target_yield:0.8 in
  (* The decoder (stage 1) is the cheap-delay stage: lowest R_i, and the
     optimiser should have sped exactly it up. *)
  Alcotest.(check bool) "decoder has lowest ri" true
    (c.E.Fig7_8.ri.(1) < c.E.Fig7_8.ri.(0) && c.E.Fig7_8.ri.(1) < c.E.Fig7_8.ri.(2));
  let b = c.E.Fig7_8.balanced and u = c.E.Fig7_8.unbalanced_best in
  Alcotest.(check bool) "decoder sped up" true
    (u.Spv_core.Balance.delays.(1) < b.Spv_core.Balance.delays.(1))

let table2 = lazy (E.Table2_3.compute E.Table2_3.Ensure_yield)

let test_table2_shape () =
  let t = Lazy.force table2 in
  let base = t.E.Table2_3.baseline and prop = t.E.Table2_3.proposed in
  Alcotest.(check bool) "baseline misses 80%" true
    (base.Spv_sizing.Global_opt.pipeline_yield < 0.8);
  Alcotest.(check bool) "proposed improves by >= 3 points" true
    (prop.Spv_sizing.Global_opt.pipeline_yield
    >= base.Spv_sizing.Global_opt.pipeline_yield +. 0.03);
  (* Small area penalty, as in the paper (2%). *)
  check_in_range "area penalty below 5%" ~lo:0.99 ~hi:1.05
    (prop.Spv_sizing.Global_opt.total_area
    /. base.Spv_sizing.Global_opt.total_area);
  (* The critical stage is c3540, unable to meet its budget. *)
  Alcotest.(check bool) "c3540 is the limiter" true
    (base.Spv_sizing.Global_opt.stage_yields.(0)
    < base.Spv_sizing.Global_opt.stage_yields.(1))

let test_table3_shape () =
  let t = E.Table2_3.compute E.Table2_3.Minimise_area in
  let base = t.E.Table2_3.baseline and prop = t.E.Table2_3.proposed in
  Alcotest.(check bool) "baseline meets 80%" true
    (base.Spv_sizing.Global_opt.pipeline_yield >= 0.8);
  Alcotest.(check bool) "yield held" true
    (prop.Spv_sizing.Global_opt.pipeline_yield >= 0.8);
  (* Meaningful area recovery (paper: 8.4%). *)
  Alcotest.(check bool) "area reduced by >= 4%" true
    (prop.Spv_sizing.Global_opt.total_area
    <= 0.96 *. base.Spv_sizing.Global_opt.total_area)

let test_gate_level_mc_confirms_table2 () =
  (* The strongest verification: full gate-level Monte-Carlo (every
     gate re-timed under sampled Vth/Leff, STA re-run per die) of the
     final sized Table II design. *)
  let t = Lazy.force table2 in
  let prop = t.E.Table2_3.proposed in
  let tech = E.Common.optimisation_tech in
  let ff = Spv_process.Flipflop.default tech in
  let samples =
    Spv_engine.Engine.(
      gate_level_delays
        (Ctx.of_circuits ~ff tech prop.Spv_sizing.Global_opt.nets)
        ~n:3000)
  in
  let mc_yield =
    Spv_stats.Descriptive.fraction_below samples
      ~threshold:t.E.Table2_3.t_target
  in
  (* The analytic product is conservative; gate-level MC adds
     multi-path effects, so allow a band around the analytic value. *)
  check_in_range "gate-level MC vs analytic"
    ~lo:(prop.Spv_sizing.Global_opt.pipeline_yield -. 0.06)
    ~hi:(prop.Spv_sizing.Global_opt.pipeline_yield +. 0.12)
    mc_yield

let test_mc_confirms_analytic_yields () =
  let t = Lazy.force table2 in
  (* The joint-model MC yield should confirm the product-formula yield
     within a few points (correlation only helps). *)
  Alcotest.(check bool) "MC at least the analytic estimate" true
    (t.E.Table2_3.mc_yield_proposed
    >= t.E.Table2_3.proposed.Spv_sizing.Global_opt.pipeline_yield -. 0.02)

let suite =
  [
    slow "fig2 model vs MC" test_fig2_model_matches_mc;
    slow "fig2 variance ordering" test_fig2_variance_ordering;
    slow "fig3 error trends" test_fig3_error_trends;
    slow "fig3 ordering ablation" test_fig3_ordering_ablation_runs;
    quick "fig4 curves" test_fig4_curves;
    quick "fig5 shapes" test_fig5_shapes;
    slow "table1 rows" test_table1_rows;
    slow "fig7 unbalancing helps" test_fig7_unbalancing_helps;
    slow "fig7 ri heuristic" test_fig7_ri_identifies_cheap_stage;
    slow "table2 shape" test_table2_shape;
    slow "table3 shape" test_table3_shape;
    slow "MC confirms yields" test_mc_confirms_analytic_yields;
    slow "gate-level MC confirms table2" test_gate_level_mc_confirms_table2;
  ]
