open Helpers
module G = Spv_stats.Gaussian
module C = Spv_stats.Correlation
module Stage = Spv_core.Stage
module P = Spv_core.Pipeline
module Engine = Spv_engine.Engine
module I = Spv_analysis.Interval
module Rp = Spv_analysis.Report
module B = Spv_analysis.Bounds
module S = Spv_analysis.Structure
module Cr = Spv_analysis.Static_criticality
module Gen = Spv_circuit.Generators

let tech = Spv_process.Tech.bptm70

let moment_ctx ?(rho = 0.3) mus sigmas =
  let stages =
    Array.map2 (fun mu sigma -> Stage.of_moments ~mu ~sigma ()) mus sigmas
  in
  Engine.Ctx.of_pipeline
    (P.make stages ~corr:(C.uniform ~n:(Array.length mus) ~rho))

let seed_moment_ctx () =
  moment_ctx [| 100.0; 95.0; 90.0; 105.0 |] [| 5.0; 4.0; 3.0; 6.0 |]

let seed_gate_ctx () =
  Engine.Ctx.of_circuits ~ff:(Spv_process.Flipflop.default tech) tech
    (Gen.inverter_chain_pipeline ~stages:3 ~depth:8 ())

(* A stage with one long chain and one trivially short side path: the
   circuit where the criticality proof must mark gates inactive. *)
let imbalanced_net ~depth =
  let b = Buffer.create 256 in
  Buffer.add_string b "INPUT(a)\nINPUT(b)\n";
  Buffer.add_string b "n1 = INV(a)\n";
  for i = 2 to depth do
    Buffer.add_string b (Printf.sprintf "n%d = INV(n%d)\n" i (i - 1))
  done;
  Buffer.add_string b "side = INV(b)\n";
  Buffer.add_string b (Printf.sprintf "OUTPUT(n%d)\nOUTPUT(side)\n" depth);
  match Spv_circuit.Bench_format.of_string_result (Buffer.contents b) with
  | Ok net -> net
  | Error _ -> Alcotest.fail "imbalanced_net: generator emitted bad bench"

(* ---- interval domain ------------------------------------------------- *)

let test_interval_ops () =
  let a = I.make ~lo:1.0 ~hi:3.0 and b = I.make ~lo:2.0 ~hi:5.0 in
  check_float "add lo" 3.0 (I.lo (I.add a b));
  check_float "add hi" 8.0 (I.hi (I.add a b));
  check_float "max2 lo" 2.0 (I.lo (I.max2 a b));
  check_float "max2 hi" 5.0 (I.hi (I.max2 a b));
  check_float "hull lo" 1.0 (I.lo (I.hull a b));
  check_float "hull hi" 5.0 (I.hi (I.hull a b));
  check_float "scale hi" 6.0 (I.hi (I.scale a 2.0));
  check_float "shift lo" 0.0 (I.lo (I.shift a (-1.0)));
  Alcotest.(check bool) "contains" true (I.contains a 3.0);
  Alcotest.(check bool) "slack widens" true (I.contains ~slack:0.5 a 3.4);
  Alcotest.(check bool) "NaN never contained" false (I.contains a Float.nan);
  Alcotest.(check int) "mem_all counts escapes" 2
    (I.mem_all a [| 0.0; 1.5; 2.5; 9.0 |]);
  check_raises_invalid "lo > hi" (fun () -> I.make ~lo:2.0 ~hi:1.0);
  check_raises_invalid "NaN endpoint" (fun () ->
      I.make ~lo:Float.nan ~hi:1.0);
  check_raises_invalid "negative scale" (fun () -> I.scale a (-1.0));
  check_raises_invalid "empty max" (fun () -> I.max_many [||])

(* ---- report framework ------------------------------------------------ *)

let test_report_sorting_and_json () =
  let f1 = Rp.finding ~pass:"zeta" "late info" in
  let f2 =
    Rp.finding ~severity:Rp.Error ~location:(Rp.Stage 1) ~pass:"alpha"
      ~data:[ ("x", Rp.Num Float.infinity) ]
      "an error"
  in
  let f3 = Rp.finding ~severity:Rp.Warn ~pass:"beta" "a warning" in
  let r = Rp.sorted (Rp.of_findings [ f1; f2; f3 ]) in
  (match r.Rp.findings with
  | [ a; b; c ] ->
      Alcotest.(check string) "errors first" "alpha" a.Rp.pass;
      Alcotest.(check string) "then warnings" "beta" b.Rp.pass;
      Alcotest.(check string) "info last" "zeta" c.Rp.pass
  | _ -> Alcotest.fail "expected three findings");
  Alcotest.(check int) "error count" 1 (Rp.count r Rp.Error);
  Alcotest.(check bool) "has_errors" true (Rp.has_errors r);
  let json = Rp.to_json r in
  let has needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "non-finite payload kept parseable" true
    (has "\"inf\"");
  Alcotest.(check bool) "counts object present" true (has "\"counts\"")

(* ---- sample containment (the abstract domain is sound) --------------- *)

let test_bounds_contain_10k_mvn_samples () =
  let ctx = seed_moment_ctx () in
  let b = B.of_ctx ctx in
  let samples = Engine.sample_delays ~seed:3 ctx ~n:10_000 in
  Alcotest.(check int) "all 10k samples inside the pipeline bound" 0
    (I.mem_all ~slack:1e-9 b.B.delay samples)

let gen_specs =
  QCheck2.Gen.(
    list_size (int_range 2 6)
      (pair (float_range 50.0 150.0) (float_range 0.2 12.0)))

let prop_bounds_contain_samples_random_pipelines =
  prop ~count:25 "random moment pipelines: samples inside bounds"
    QCheck2.Gen.(pair gen_specs (float_range 0.0 0.8))
    (fun (specs, rho) ->
      let mus = Array.of_list (List.map fst specs)
      and sigmas = Array.of_list (List.map snd specs) in
      let ctx = moment_ctx ~rho mus sigmas in
      let b = B.of_ctx ctx in
      let samples = Engine.sample_delays ~seed:5 ctx ~n:400 in
      I.mem_all ~slack:1e-9 b.B.delay samples = 0)

let prop_bounds_contain_samples_random_netlists =
  prop ~count:8 "random netlists: gate-level MC inside bounds"
    QCheck2.Gen.(
      quad (int_range 2 5) (int_range 8 40) (int_range 2 6) (int_range 0 999))
    (fun (inputs, gates, depth, seed) ->
      let gates = Int.max gates depth in
      let net =
        Gen.random_logic ~name:"rand" ~inputs ~gates ~depth ~seed
      in
      let ctx = Engine.Ctx.of_circuits tech [| net |] in
      let b = B.of_ctx ctx in
      let lin = Engine.gate_level_delays ~seed:7 ctx ~n:200 in
      let exact = Engine.gate_level_delays ~exact:true ~seed:8 ctx ~n:200 in
      I.mem_all ~slack:1e-9 b.B.delay lin = 0
      && I.mem_all ~slack:1e-9 b.B.delay exact = 0)

let prop_repaired_correlation_within_bounds =
  (* A non-PSD "correlation" repaired by the sym_eig clipping path must
     still yield a pipeline whose samples respect the marginal bounds
     (the repair rescales to unit diagonal, leaving marginals alone). *)
  prop ~count:20 "sym_eig-repaired pipelines: samples inside bounds"
    QCheck2.Gen.(
      pair (int_range 3 5)
        (pair (float_range (-0.95) 0.95) (float_range (-0.95) 0.95)))
    (fun (n, (r1, r2)) ->
      let m = Spv_stats.Matrix.create ~rows:n ~cols:n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Spv_stats.Matrix.set m i j
            (if i = j then 1.0 else if (i + j) mod 2 = 0 then r1 else r2)
        done
      done;
      let mus = Array.init n (fun i -> 100.0 +. float_of_int i)
      and sigmas = Array.make n 5.0 in
      match
        Spv_robust.Checked.pipeline_of_matrix ~mus ~sigmas ~corr:m ()
      with
      | Error _ -> true (* unrepairable inputs are allowed to be rejected *)
      | Ok p ->
          let ctx = Engine.Ctx.of_pipeline p in
          let b = B.of_ctx ctx in
          let samples = Engine.sample_delays ~seed:9 ctx ~n:400 in
          I.mem_all ~slack:1e-9 b.B.delay samples = 0)

(* ---- estimate containment (the acceptance criterion) ----------------- *)

let check_all_methods ctx name =
  let b = B.of_ctx ctx in
  let mu_t = G.mu (Engine.Ctx.delay_distribution ctx)
  and sigma_t = G.sigma (Engine.Ctx.delay_distribution ctx) in
  let t_target = mu_t +. sigma_t in
  List.iter
    (fun method_ ->
      let e = Engine.yield ~method_ ~seed:7 ~n:4000 ctx ~t_target in
      let v = B.check ~t_target b e in
      if not (B.verdict_ok v) then
        Alcotest.failf "%s: %s yield %g escapes the Fréchet bounds %s" name
          (Engine.method_name method_) e.Engine.value
          (I.to_string (B.yield_bounds b ~t_target)))
    Engine.all_methods;
  List.iter
    (fun method_ ->
      let e = Engine.delay_mean ~method_ ~seed:7 ~n:4000 ctx in
      let v = B.check b e in
      if not (B.verdict_ok v) then
        Alcotest.failf "%s: %s mean %g escapes the envelope %s" name
          (Engine.method_name method_) e.Engine.value (I.to_string b.B.mean))
    [ Engine.Analytic_clark; Engine.Mc; Engine.Adaptive_mc ]

let test_every_method_within_bounds_moments () =
  check_all_methods (seed_moment_ctx ()) "moments pipeline"

let test_every_method_within_bounds_gate_level () =
  check_all_methods (seed_gate_ctx ()) "gate-level pipeline"

let test_verdicts () =
  let b = B.of_ctx (seed_moment_ctx ()) in
  let est value =
    {
      Engine.value;
      std_error = 0.0;
      n_samples = 0;
      method_ = Engine.Exact_independent;
      stop = Engine.Closed_form;
      hier_bound = None;
      ess = None;
      proposal = None;
    }
  in
  (match B.check ~t_target:1e9 b (est 2.0) with
  | B.Fail { excess; _ } -> check_in_range "excess" ~lo:0.9 ~hi:1.1 excess
  | B.Pass _ -> Alcotest.fail "yield 2.0 must fail any yield bound");
  (match B.check b (est 0.0) with
  | B.Fail _ -> ()
  | B.Pass _ -> Alcotest.fail "mean 0 must fall below the Jensen bound");
  match B.check ~slack:1e12 b (est 0.0) with
  | B.Pass _ -> ()
  | B.Fail _ -> Alcotest.fail "huge slack must pass"

let test_engine_debug_hook () =
  let ctx = seed_moment_ctx () in
  Fun.protect
    ~finally:(fun () ->
      Engine.set_debug_checks false;
      Engine.set_estimate_check ~name:"boom" None)
    (fun () ->
      Spv_analysis.Bounds.install_engine_check ();
      Engine.set_debug_checks true;
      Alcotest.(check bool) "enabled" true (Engine.debug_checks_enabled ());
      let e =
        Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target:110.0
      in
      check_in_range "yield sane under checks" ~lo:0.0 ~hi:1.0 e.Engine.value;
      let _ = Engine.delay_mean ~method_:Engine.Analytic_clark ctx in
      Engine.set_estimate_check ~name:"boom"
        (Some (fun _ ~t_target:_ _ -> Error "boom"));
      match Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target:110.0 with
      | exception Failure msg ->
          Alcotest.(check bool) "oracle message surfaced" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "violated postcondition must raise Failure")

(* ---- static criticality -------------------------------------------- *)

let test_criticality_invariants () =
  let net = Gen.ripple_carry_adder ~bits:8 in
  let t = Cr.analyse tech net in
  let nominal = Spv_circuit.Sta.run tech net in
  check_in_range "corner STAs bracket nominal" ~lo:t.Cr.lo_sta.Spv_circuit.Sta.delay
    ~hi:t.Cr.hi_sta.Spv_circuit.Sta.delay nominal.Spv_circuit.Sta.delay;
  check_float "lo_delay is the lo-corner delay"
    t.Cr.lo_sta.Spv_circuit.Sta.delay t.Cr.lo_delay;
  Alcotest.(check bool) "cone non-empty" true (Cr.cone t <> []);
  List.iter
    (fun id ->
      if not t.Cr.active.(id) then
        Alcotest.failf "nominal critical path node %d proven non-critical" id)
    nominal.Spv_circuit.Sta.critical_path

(* The soundness claim itself: in every world inside the k-sigma box a
   gate proven inactive is never on the critical path. *)
let test_criticality_sound_in_box () =
  let net = imbalanced_net ~depth:50 in
  let k = 3.0 in
  let t = Cr.analyse ~k tech net in
  if Cr.prunable_fraction t = 0.0 then
    Alcotest.fail "imbalanced stage must have statically inactive gates";
  let f_lo, f_hi = B.corner_factors ~k tech net in
  let rng = Spv_stats.Rng.create ~seed:11 in
  for trial = 1 to 400 do
    let factors =
      Array.mapi
        (fun i lo -> Spv_stats.Rng.uniform rng ~lo ~hi:f_hi.(i))
        f_lo
    in
    let sta = Spv_circuit.Sta.run_with_factors tech net ~factors in
    List.iter
      (fun id ->
        if not t.Cr.active.(id) then
          Alcotest.failf "trial %d: inactive gate %d on the critical path"
            trial id)
      sta.Spv_circuit.Sta.critical_path
  done

(* ---- structure pass -------------------------------------------------- *)

let test_reconvergence_detection () =
  let diamond =
    "INPUT(a)\nu = INV(a)\nv = INV(a)\ny = NAND(u, v)\nOUTPUT(y)\n"
  in
  let net =
    match Spv_circuit.Bench_format.of_string_result diamond with
    | Ok net -> net
    | Error _ -> Alcotest.fail "diamond bench must parse"
  in
  (match S.stems net with
  | [ s ] ->
      Alcotest.(check int) "two branches" 2 s.S.branches;
      Alcotest.(check bool) "reconverges" true (s.S.reconvergence_count >= 1)
  | l -> Alcotest.failf "expected one stem, got %d" (List.length l));
  Alcotest.(check int) "chains have no stems" 0
    (List.length (S.stems (Gen.inverter_chain ~depth:6 ())))

let test_tie_and_order_scores () =
  let tied =
    P.make
      (Array.init 3 (fun _ -> Stage.of_moments ~mu:100.0 ~sigma:5.0 ()))
      ~corr:(C.independent ~n:3)
  and dominated =
    P.make
      [|
        Stage.of_moments ~mu:100.0 ~sigma:2.0 ();
        Stage.of_moments ~mu:160.0 ~sigma:2.0 ();
      |]
      ~corr:(C.independent ~n:2)
  in
  let tied_scores = S.tie_scores tied in
  Array.iter (fun s -> check_in_range "tied score" ~lo:0.99 ~hi:1.0 s) tied_scores;
  let dom_scores = S.tie_scores dominated in
  Array.iter (fun s -> check_in_range "ordered score" ~lo:0.0 ~hi:1e-6 s) dom_scores;
  let spread = S.order_sensitivity tied in
  Alcotest.(check bool) "spreads non-negative" true
    (spread.S.mu_spread >= 0.0 && spread.S.sigma_spread >= 0.0)

(* ---- composed analyzer runs ------------------------------------------ *)

let test_analyze_run_composition () =
  let ctx = seed_gate_ctx () in
  let t_target = G.mu (Engine.Ctx.delay_distribution ctx) *. 1.1 in
  let r = Spv_analysis.Analyze.run ~t_target ctx in
  let report = r.Spv_analysis.Analyze.report in
  Alcotest.(check bool) "no errors on a healthy pipeline" false
    (Rp.has_errors report);
  let passes =
    List.sort_uniq String.compare
      (List.map (fun f -> f.Rp.pass) report.Rp.findings)
  in
  List.iter
    (fun p ->
      if not (List.mem p passes) then Alcotest.failf "pass %s missing" p)
    [ "bounds"; "bounds-check"; "correlation"; "criticality"; "reconvergence" ];
  match r.Spv_analysis.Analyze.criticality with
  | None -> Alcotest.fail "gate-level run must carry criticality results"
  | Some per_stage ->
      Alcotest.(check int) "one result per stage" (Engine.Ctx.n_stages ctx)
        (Array.length per_stage)

let test_analyze_flags_degenerate_bounds () =
  let ctx = seed_gate_ctx () in
  let r = Spv_analysis.Analyze.run ~k:500.0 ctx in
  Alcotest.(check bool) "absurd k reported at Error severity" true
    (Rp.has_errors r.Spv_analysis.Analyze.report)

(* On a single-stage pipeline the Fréchet union lower bound degenerates
   to 1 - (1 - phi), and the floating-point round trip can land one ulp
   above the min-phi upper bound — Interval.make would raise.  The
   sigma below reproduces the exact ulp trip at t = 80 (found by
   driving analyze over a hand-written one-gate bench). *)
let test_yield_bounds_single_stage_ulp () =
  let ctx = moment_ctx ~rho:0.0 [| 100.0 |] [| 9.8857275592138372 |] in
  let b = B.of_ctx ctx in
  for i = 0 to 400 do
    let t_target = 60.0 +. (0.2 *. float_of_int i) in
    let iv = B.yield_bounds b ~t_target in
    if I.lo iv > I.hi iv then
      Alcotest.failf "t=%g: lo %.17g > hi %.17g" t_target (I.lo iv) (I.hi iv);
    (* single stage: the enclosure is (up to the clamp) a point *)
    check_in_range "point enclosure" ~lo:(I.lo iv)
      ~hi:(I.lo iv +. 1e-12) (I.hi iv)
  done

let suite =
  [
    quick "interval ops" test_interval_ops;
    quick "report sorting and json" test_report_sorting_and_json;
    slow "bounds contain 10k MVN samples" test_bounds_contain_10k_mvn_samples;
    prop_bounds_contain_samples_random_pipelines;
    prop_bounds_contain_samples_random_netlists;
    prop_repaired_correlation_within_bounds;
    slow "every estimator within bounds (moments)"
      test_every_method_within_bounds_moments;
    slow "every estimator within bounds (gate-level)"
      test_every_method_within_bounds_gate_level;
    quick "check verdicts" test_verdicts;
    quick "single-stage yield bounds ulp" test_yield_bounds_single_stage_ulp;
    quick "engine debug hook" test_engine_debug_hook;
    quick "criticality invariants" test_criticality_invariants;
    quick "criticality sound in box" test_criticality_sound_in_box;
    quick "reconvergence detection" test_reconvergence_detection;
    quick "tie and order scores" test_tie_and_order_scores;
    quick "analyze run composition" test_analyze_run_composition;
    quick "analyze flags degenerate bounds" test_analyze_flags_degenerate_bounds;
  ]
