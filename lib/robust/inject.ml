module M = Spv_stats.Matrix
module G = Spv_stats.Gaussian

type expectation = Expect_error | Expect_ok | Expect_either

type case = {
  name : string;
  expect : expectation;
  run : unit -> (string, Errors.t) result;
}

type outcome =
  | Ok_value of string
  | Typed_error of Errors.t
  | Escaped of string

type verdict = Pass | Fail of string

let run_case c =
  match c.run () with
  | Ok s -> Ok_value s
  | Error e -> Typed_error e
  | exception e -> Escaped (Printexc.to_string e)

let verdict c outcome =
  match (outcome, c.expect) with
  | Escaped msg, _ -> Fail ("uncaught exception: " ^ msg)
  | Ok_value v, Expect_error ->
      Fail ("expected a typed error, got a value: " ^ v)
  | Typed_error e, Expect_ok ->
      Fail ("expected success, got: " ^ Errors.to_string e)
  | _ -> Pass

(* ---- helpers -------------------------------------------------------- *)

(* Every value a case reports back is finiteness-checked here, so a
   silently propagated NaN turns an Expect_ok case into a failure. *)
let show name x =
  if Float.is_finite x then Ok (Printf.sprintf "%s=%g" name x)
  else
    Error (Errors.numeric ~where:name (Printf.sprintf "non-finite %g" x))

let show_gaussian name g =
  if Float.is_finite (G.mu g) && Float.is_finite (G.sigma g) then
    Ok (Printf.sprintf "%s=N(%g, %g)" name (G.mu g) (G.sigma g))
  else Error (Errors.numeric ~where:name "non-finite distribution")

let ( let* ) = Result.bind

let parse ?(expect = Expect_error) name text =
  {
    name;
    expect;
    run =
      (fun () ->
        let* net = Checked.parse_bench_string text in
        Ok (Printf.sprintf "%d gates" (Spv_circuit.Netlist.n_gates net)));
  }

let moments ?(expect = Expect_error) name ~mus ~sigmas ~rho ~t_target =
  {
    name;
    expect;
    run =
      (fun () ->
        let* p = Checked.pipeline_of_moments ~mus ~sigmas ~rho () in
        let* y = Checked.yield_estimate p ~t_target in
        show "yield" y);
  }

(* Adaptive engine yield of a one-stage N(100, sigma) pipeline. *)
let mc_budget ?(expect = Expect_error) name ~sigma ~t_target yield =
  {
    name;
    expect;
    run =
      (fun () ->
        let* p =
          Checked.pipeline_of_moments ~mus:[| 100.0 |] ~sigmas:[| sigma |]
            ~rho:0.0 ()
        in
        let* ctx = Checked.engine_ctx_of_pipeline p in
        let* e = yield ctx ~t_target in
        show "mc yield" e.Spv_engine.Engine.value);
  }

let clark ?(expect = Expect_error) name ~mus ~sigmas ~corr =
  {
    name;
    expect;
    run =
      (fun () ->
        let* g = Checked.clark_max ~mus ~sigmas ~corr () in
        show_gaussian "max" g);
  }

let tech = Spv_process.Tech.bptm70

let small_net () = Spv_circuit.Generators.inverter_chain ~depth:4 ()

(* Analyzer cases report the finding count; error-severity findings
   (degenerate bounds, out-of-bound estimates) become the Lint-coded
   typed error the CLI exits with. *)
let analysis_summary (r : Spv_analysis.Analyze.result) =
  match Checked.analysis_errors r with
  | Some e -> Error e
  | None ->
      let report = r.Spv_analysis.Analyze.report in
      Ok
        (Printf.sprintf "%d findings (%d warn)"
           (List.length report.Spv_analysis.Report.findings)
           (Spv_analysis.Report.count report Spv_analysis.Report.Warn))

(* A healthy moments-level engine context shared by the engine cases. *)
let engine_ctx () =
  let* p =
    Checked.pipeline_of_moments ~mus:[| 100.0; 95.0; 90.0 |]
      ~sigmas:[| 5.0; 4.0; 3.0 |] ~rho:0.3 ()
  in
  Checked.engine_ctx_of_pipeline p

(* Adversarial near-violation inputs for the differential oracle: each
   one is a deterministic, seed-only repro sitting right at the edge of
   an estimator contract, and the oracle must still pass every
   invariant on it — a violation here is exactly the exit-9
   counterexample the fuzzer hunts. *)
let oracle_case ?invariants name build_ctx =
  {
    name;
    expect = Expect_ok;
    run =
      (fun () ->
        let ctx = build_ctx () in
        let checks, violations = Oracle.check_ctx ?invariants ctx ~seed:42 in
        match violations with
        | [] -> Ok (Printf.sprintf "%d oracle check(s)" checks)
        | v :: _ -> Error (Oracle.violation_to_error v));
  }

let fuzz_process ?inter ?random ?sys ?leff () =
  {
    Spv_circuit.Fuzz.inter_vth_mv = inter;
    random_vth_mv = random;
    sys_vth_mv = sys;
    leff_rel_inter = leff;
  }

(* ---- the corpus ----------------------------------------------------- *)

let corpus () =
  [
    (* -- malformed .bench text -- *)
    parse "bench/truncated-def" "INPUT(a)\ny = NAND(a";
    parse "bench/truncated-input" "INPUT(a\ny = INV(a)\nOUTPUT(y)\n";
    parse "bench/garbled" "\xff\xfe\x00 not a bench file at all";
    parse "bench/empty-text" "";
    parse "bench/comment-only" "# just a comment\n\n";
    parse "bench/no-outputs" "INPUT(a)\ny = INV(a)\n";
    parse "bench/undefined-signal" "INPUT(a)\ny = INV(zzz)\nOUTPUT(y)\n";
    parse "bench/undefined-output" "INPUT(a)\ny = INV(a)\nOUTPUT(q)\n";
    parse "bench/multiply-driven"
      "INPUT(a)\nn1 = INV(a)\nn1 = BUF(a)\nOUTPUT(n1)\n";
    parse "bench/input-redefined" "INPUT(a)\na = INV(a)\nOUTPUT(a)\n";
    parse "bench/duplicate-gate"
      "INPUT(a)\nn1 = INV(a)\nn2 = INV(n1)\nn1 = BUF(a)\nOUTPUT(n2)\n";
    parse "bench/trailing-garbage"
      "INPUT(a)\ny = INV(a) oops\nOUTPUT(y)\n";
    parse "bench/combinational-loop"
      "INPUT(a)\nx = INV(y)\ny = INV(x)\nOUTPUT(y)\n";
    parse "bench/self-loop" "INPUT(a)\nx = INV(x)\nOUTPUT(x)\n";
    parse "bench/unknown-cell" "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n";
    parse "bench/bad-arity" "INPUT(a)\ny = XOR(a)\nOUTPUT(y)\n";
    parse "bench/bad-size" "INPUT(a)\ny = INV(a) [size=zero]\nOUTPUT(y)\n";
    parse "bench/negative-size" "INPUT(a)\ny = INV(a) [size=-2]\nOUTPUT(y)\n";
    parse "bench/zero-fanin" "INPUT(a)\ny = AND()\nOUTPUT(y)\n";
    parse "bench/wire-only-circuit" "INPUT(a)\nOUTPUT(a)\n";
    parse ~expect:Expect_ok "bench/dangling-definition-warns"
      "INPUT(a)\ny = INV(a)\ndead = BUF(a)\nOUTPUT(y)\n";
    parse ~expect:Expect_ok "bench/unused-input-warns"
      "INPUT(a)\nINPUT(b)\ny = INV(a)\nOUTPUT(y)\n";
    parse ~expect:Expect_ok "bench/duplicate-output-warns"
      "INPUT(a)\ny = INV(a)\nOUTPUT(y)\nOUTPUT(y)\n";
    {
      name = "bench/missing-file";
      expect = Expect_error;
      run =
        (fun () ->
          let* net =
            Checked.parse_bench_file "/nonexistent/path/to/circuit.bench"
          in
          Ok (Spv_circuit.Netlist.name net));
    };
    {
      name = "bench/directory-as-file";
      expect = Expect_error;
      run =
        (fun () ->
          let* net = Checked.parse_bench_file "/" in
          Ok (Spv_circuit.Netlist.name net));
    };
    (* -- degenerate stage moments -- *)
    moments "moments/nan-sigma" ~mus:[| 100.0 |] ~sigmas:[| Float.nan |]
      ~rho:0.0 ~t_target:110.0;
    moments "moments/inf-mu"
      ~mus:[| Float.infinity; 100.0 |]
      ~sigmas:[| 5.0; 5.0 |] ~rho:0.0 ~t_target:110.0;
    moments "moments/negative-sigma" ~mus:[| 100.0 |] ~sigmas:[| -5.0 |]
      ~rho:0.0 ~t_target:110.0;
    moments "moments/empty-stage-list" ~mus:[||] ~sigmas:[||] ~rho:0.0
      ~t_target:110.0;
    moments "moments/length-mismatch" ~mus:[| 100.0; 90.0 |]
      ~sigmas:[| 5.0 |] ~rho:0.0 ~t_target:110.0;
    moments "moments/rho-far-out" ~mus:[| 100.0; 90.0 |]
      ~sigmas:[| 5.0; 5.0 |] ~rho:1.5 ~t_target:110.0;
    moments "moments/rho-nan" ~mus:[| 100.0; 90.0 |] ~sigmas:[| 5.0; 5.0 |]
      ~rho:Float.nan ~t_target:110.0;
    moments ~expect:Expect_ok "moments/rho-fp-overshoot"
      ~mus:[| 100.0; 90.0 |] ~sigmas:[| 5.0; 5.0 |]
      ~rho:(1.0 +. 1e-9) ~t_target:110.0;
    moments "moments/rho-below-admissible" ~mus:[| 100.0; 90.0; 95.0; 97.0 |]
      ~sigmas:[| 5.0; 5.0; 5.0; 5.0 |] ~rho:(-0.5) ~t_target:110.0;
    moments ~expect:Expect_ok "moments/all-sigmas-zero"
      ~mus:[| 100.0; 90.0 |] ~sigmas:[| 0.0; 0.0 |] ~rho:0.0 ~t_target:95.0;
    moments ~expect:Expect_ok "moments/extreme-target-high"
      ~mus:[| 100.0; 90.0 |] ~sigmas:[| 5.0; 5.0 |] ~rho:0.3 ~t_target:1e30;
    moments ~expect:Expect_ok "moments/extreme-target-low"
      ~mus:[| 100.0; 90.0 |] ~sigmas:[| 5.0; 5.0 |] ~rho:0.3
      ~t_target:(-1e30);
    {
      name = "moments/target-nan";
      expect = Expect_error;
      run =
        (fun () ->
          let* p =
            Checked.pipeline_of_moments ~mus:[| 100.0 |] ~sigmas:[| 5.0 |]
              ~rho:0.0 ()
          in
          let* y = Checked.yield_estimate p ~t_target:Float.nan in
          show "yield" y);
    };
    {
      name = "moments/target-inf";
      expect = Expect_error;
      run =
        (fun () ->
          let* p =
            Checked.pipeline_of_moments ~mus:[| 100.0 |] ~sigmas:[| 5.0 |]
              ~rho:0.0 ()
          in
          let* y = Checked.yield_estimate p ~t_target:Float.infinity in
          show "yield" y);
    };
    (* -- correlation matrices -- *)
    clark ~expect:Expect_ok "corr/non-psd-repaired"
      ~mus:[| 100.0; 95.0; 90.0 |] ~sigmas:[| 5.0; 5.0; 5.0 |]
      ~corr:
        (M.of_arrays
           [|
             [| 1.0; 0.9; 0.9 |]; [| 0.9; 1.0; -0.9 |]; [| 0.9; -0.9; 1.0 |];
           |]);
    clark "corr/non-symmetric" ~mus:[| 100.0; 95.0 |] ~sigmas:[| 5.0; 5.0 |]
      ~corr:(M.of_arrays [| [| 1.0; 0.5 |]; [| -0.5; 1.0 |] |]);
    clark "corr/nan-entry" ~mus:[| 100.0; 95.0 |] ~sigmas:[| 5.0; 5.0 |]
      ~corr:(M.of_arrays [| [| 1.0; Float.nan |]; [| Float.nan; 1.0 |] |]);
    clark "corr/bad-diagonal" ~mus:[| 100.0; 95.0 |] ~sigmas:[| 5.0; 5.0 |]
      ~corr:(M.of_arrays [| [| 2.0; 0.5 |]; [| 0.5; 2.0 |] |]);
    clark "corr/entry-out-of-range" ~mus:[| 100.0; 95.0 |]
      ~sigmas:[| 5.0; 5.0 |]
      ~corr:(M.of_arrays [| [| 1.0; 1.7 |]; [| 1.7; 1.0 |] |]);
    clark "corr/wrong-dimension" ~mus:[| 100.0; 95.0; 90.0 |]
      ~sigmas:[| 5.0; 5.0; 5.0 |]
      ~corr:(M.of_arrays [| [| 1.0; 0.5 |]; [| 0.5; 1.0 |] |]);
    clark ~expect:Expect_ok "corr/equal-means-degenerate"
      ~mus:[| 100.0; 100.0 |] ~sigmas:[| 0.0; 0.0 |]
      ~corr:(M.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]);
    (* -- Monte-Carlo budgets -- *)
    mc_budget "mc/zero-sample-cap" ~sigma:5.0 ~t_target:105.0 (fun ctx ->
        Checked.engine_yield ~max_samples:0 ctx);
    mc_budget "mc/nan-rel-se-target" ~sigma:5.0 ~t_target:105.0 (fun ctx ->
        Checked.engine_yield ~rel_se_target:Float.nan ctx);
    (* Yield ~0: the relative-SE criterion can never converge, so the
       hard cap must stop the loop and say so. *)
    mc_budget ~expect:Expect_ok "mc/impossible-target-hits-cap" ~sigma:1.0
      ~t_target:50.0 (fun ctx ~t_target ->
        let* e = Checked.engine_yield ~max_samples:4096 ctx ~t_target in
        if e.Spv_engine.Engine.stop = Spv_engine.Engine.Sample_cap then Ok e
        else
          Error
            (Errors.internal ~where:"mc"
               "cap not reported as budget exhaustion"));
    (* -- degenerate samples into statistics -- *)
    {
      name = "stats/ks-empty-sample";
      expect = Expect_error;
      run =
        (fun () ->
          let* r =
            Checked.ks_against_gaussian [||] (G.make ~mu:0.0 ~sigma:1.0)
          in
          show "ks" r.Spv_stats.Kstest.statistic);
    };
    {
      name = "stats/ks-nan-sample";
      expect = Expect_error;
      run =
        (fun () ->
          let* r =
            Checked.ks_against_gaussian
              [| 1.0; Float.nan; 2.0 |]
              (G.make ~mu:0.0 ~sigma:1.0)
          in
          show "ks" r.Spv_stats.Kstest.statistic);
    };
    {
      name = "stats/histogram-empty";
      expect = Expect_error;
      run =
        (fun () ->
          let* h = Checked.histogram [||] in
          show "bins" (float_of_int (Spv_stats.Histogram.bins h)));
    };
    {
      name = "stats/histogram-inf-sample";
      expect = Expect_error;
      run =
        (fun () ->
          let* h = Checked.histogram [| 1.0; Float.infinity |] in
          show "bins" (float_of_int (Spv_stats.Histogram.bins h)));
    };
    (* -- sizing -- *)
    {
      name = "sizing/nan-target";
      expect = Expect_error;
      run =
        (fun () ->
          let* r =
            Checked.size_stage tech (small_net ()) ~t_target:Float.nan ~z:1.6
          in
          show "area" r.Spv_sizing.Lagrangian.area);
    };
    {
      name = "sizing/negative-target";
      expect = Expect_error;
      run =
        (fun () ->
          let* r =
            Checked.size_stage tech (small_net ()) ~t_target:(-50.0) ~z:1.6
          in
          show "area" r.Spv_sizing.Lagrangian.area);
    };
    {
      name = "sizing/nan-z";
      expect = Expect_error;
      run =
        (fun () ->
          let* r =
            Checked.size_stage tech (small_net ()) ~t_target:200.0
              ~z:Float.nan
          in
          show "area" r.Spv_sizing.Lagrangian.area);
    };
    (* -- engine entry points -- *)
    {
      name = "engine/jobs-zero";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* e =
            Checked.engine_yield ~method_:Spv_engine.Engine.Mc ~jobs:0 ~n:64
              ctx ~t_target:105.0
          in
          show "yield" e.Spv_engine.Engine.value);
    };
    {
      name = "engine/shards-zero";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* e =
            Checked.engine_yield ~method_:Spv_engine.Engine.Mc ~shards:0
              ~n:64 ctx ~t_target:105.0
          in
          show "yield" e.Spv_engine.Engine.value);
    };
    {
      name = "engine/mc-zero-trials";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* e =
            Checked.engine_yield ~method_:Spv_engine.Engine.Mc ~n:0 ctx
              ~t_target:105.0
          in
          show "yield" e.Spv_engine.Engine.value);
    };
    {
      name = "engine/nan-target";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* e = Checked.engine_yield ctx ~t_target:Float.nan in
          show "yield" e.Spv_engine.Engine.value);
    };
    {
      name = "engine/adaptive-zero-sample-cap";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* e =
            Checked.engine_yield ~max_samples:0 ctx ~t_target:105.0
          in
          show "yield" e.Spv_engine.Engine.value);
    };
    {
      name = "engine/gate-level-on-moments-ctx";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* samples = Checked.engine_gate_level_delays ctx ~n:64 in
          show "trials" (float_of_int (Array.length samples)));
    };
    {
      name = "engine/delay-mean-unsupported-method";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* e =
            Checked.engine_delay_mean
              ~method_:Spv_engine.Engine.Quadrature ctx
          in
          show "mean" e.Spv_engine.Engine.value);
    };
    (* -- static analyzer -- *)
    {
      name = "analyze/cyclic-netlist";
      expect = Expect_error;
      run =
        (fun () ->
          (* A combinational loop must die at the parse/lint boundary,
             before the analyzer can levelise it. *)
          let* net =
            Checked.parse_bench_string
              "INPUT(a)\nx = NAND(a, y)\ny = INV(x)\nOUTPUT(y)\n"
          in
          let* ctx = Checked.engine_ctx_of_circuits tech [| net |] in
          let* r = Checked.analyze ctx in
          analysis_summary r);
    };
    {
      name = "analyze/k-zero";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = Checked.engine_ctx_of_circuits tech [| small_net () |] in
          let* r = Checked.analyze ~k:0.0 ctx in
          analysis_summary r);
    };
    {
      name = "analyze/k-nan";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = Checked.engine_ctx_of_circuits tech [| small_net () |] in
          let* r = Checked.analyze ~k:Float.nan ctx in
          analysis_summary r);
    };
    {
      name = "analyze/degenerate-bounds-huge-k";
      expect = Expect_error;
      run =
        (fun () ->
          (* k=500 pushes the Vth box across the device cutoff: the
             exact alpha-power factor diverges and the interval goes
             non-finite, which must surface as a typed numeric error,
             not as a NaN/inf report. *)
          let* ctx = Checked.engine_ctx_of_circuits tech [| small_net () |] in
          let* r = Checked.analyze ~k:500.0 ctx in
          analysis_summary r);
    };
    {
      name = "analyze/empty-pipeline";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = Checked.engine_ctx_of_circuits tech [||] in
          let* r = Checked.analyze ctx in
          analysis_summary r);
    };
    {
      name = "analyze/target-nan";
      expect = Expect_error;
      run =
        (fun () ->
          let* ctx = Checked.engine_ctx_of_circuits tech [| small_net () |] in
          let* r = Checked.analyze ~t_target:Float.nan ctx in
          analysis_summary r);
    };
    {
      name = "control/analyze-circuit-healthy";
      expect = Expect_ok;
      run =
        (fun () ->
          let* ctx = Checked.engine_ctx_of_circuits tech [| small_net () |] in
          let* r = Checked.analyze ~t_target:200.0 ctx in
          analysis_summary r);
    };
    {
      name = "control/analyze-moments-healthy";
      expect = Expect_ok;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* r = Checked.analyze ~t_target:120.0 ctx in
          analysis_summary r);
    };
    (* -- healthy controls: the harness must not reject good input -- *)
    {
      name = "control/engine-adaptive-healthy";
      expect = Expect_ok;
      run =
        (fun () ->
          let* ctx = engine_ctx () in
          let* e =
            Checked.engine_yield ~max_samples:8192 ctx ~t_target:105.0
          in
          show "yield" e.Spv_engine.Engine.value);
    };
    {
      name = "control/engine-gate-level-healthy";
      expect = Expect_ok;
      run =
        (fun () ->
          let* ctx = Checked.engine_ctx_of_circuits tech [| small_net () |] in
          let* samples = Checked.engine_gate_level_delays ctx ~n:64 in
          show "mean" (Spv_stats.Descriptive.mean samples));
    };
    {
      name = "control/engine-jobs-invariant";
      expect = Expect_ok;
      run =
        (fun () ->
          (* The determinism contract: results depend on (seed, shards)
             only, never on the worker count. *)
          let* ctx = engine_ctx () in
          let yield_with jobs =
            Checked.engine_yield ~method_:Spv_engine.Engine.Mc ~jobs
              ~n:2048 ctx ~t_target:105.0
          in
          let* a = yield_with 1 in
          let* b = yield_with 3 in
          if
            Int64.equal
              (Int64.bits_of_float a.Spv_engine.Engine.value)
              (Int64.bits_of_float b.Spv_engine.Engine.value)
          then show "yield" a.Spv_engine.Engine.value
          else
            Error
              (Errors.internal ~where:"engine"
                 "jobs=3 and jobs=1 disagree"));
    };
    {
      name = "control/ssta-healthy-netlist";
      expect = Expect_ok;
      run =
        (fun () ->
          let* g = Checked.ssta_stage tech (small_net ()) in
          show_gaussian "stage" g);
    };
    moments ~expect:Expect_ok "control/healthy-pipeline"
      ~mus:[| 100.0; 95.0; 90.0 |] ~sigmas:[| 5.0; 4.0; 3.0 |] ~rho:0.3
      ~t_target:110.0;
    (* -- adversarial differential-oracle cases (hand-minimized) -- *)
    oracle_case "oracle/near-degenerate-correlation" (fun () ->
        (* Inter-die sigma at the lint ceiling, random sigma one
           quantum above zero: stage correlations land at 1 - epsilon,
           the hardest spot for Clark's moment matching. *)
        Oracle.ctx_of
          (Spv_circuit.Generators.inverter_chain_pipeline ~stages:2 ~depth:4
             ())
          (fuzz_process ~inter:80.0 ~random:0.1 ~sys:0.0 ~leff:0.0 ()));
    oracle_case "oracle/zero-sigma-gates" (fun () ->
        (* No variation at all: sigma_T = 0 forces the oracle's
           degenerate path (single target, point envelopes, step-function
           yields). *)
        Spv_engine.Engine.Ctx.of_circuits
          (Spv_process.Tech.no_variation tech)
          [| small_net () |]);
    oracle_case "oracle/single-gate-stages" (fun () ->
        (* Three stages of one inverter each: minimal per-stage moments,
           maximal relative weight of any one stage in the max. *)
        Oracle.ctx_of
          (Array.init 3 (fun i ->
               Spv_circuit.Generators.inverter_chain
                 ~name:(Printf.sprintf "one%d" i) ~depth:1 ()))
          Spv_circuit.Fuzz.nominal_process);
    oracle_case "oracle/max-depth-reconvergence" (fun () ->
        (* Every non-pinned fanin reconverges and nothing attenuates:
           the generator rides the max_depth/max_gates caps, producing
           the most reconvergent topology the lint rules allow. *)
        let config =
          {
            Spv_circuit.Fuzz.default_config with
            max_stages = 1;
            reconv_p = 1.0;
            grow_p = 1.0;
            attenuation = 1.0;
          }
        in
        let rng = Spv_stats.Rng.create ~seed:1999 in
        Oracle.ctx_of
          [| Spv_circuit.Fuzz.generate_stage ~config rng |]
          Spv_circuit.Fuzz.nominal_process);
    oracle_case "oracle/extreme-vth-override" (fun () ->
        (* Every process knob pinned to its lint-legal extreme
           (80 mV Vth sigmas, 15% Leff): the widest spread the fuzzer
           may legally draw. *)
        Oracle.ctx_of
          (Spv_circuit.Generators.inverter_chain_pipeline ~stages:2 ~depth:4
             ())
          (fuzz_process ~inter:80.0 ~random:80.0 ~sys:80.0 ~leff:0.15 ()));
    oracle_case "oracle/mean-vs-sigma-cone-ranking"
      ~invariants:
        [ Oracle.Envelope; Oracle.Containment; Oracle.Nesting; Oracle.Replay ]
        (* Agreement is excluded: Clark's moment match is documented to
           be weak at the body of this deliberately bimodal max; the
           ranking contract lives in the Envelope tail ceiling. *)
      (fun () ->
        (* Stage 0 holds the nominal critical path (10 ps higher mean,
           ~93% of the body criticality) but stage 1's doubled sigma
           owns the 4-sigma tail by an order of magnitude.  A cone
           ranking ordered by nominal delay or body criticality
           instead of criticality-weighted exceedance would shift the
           cone-guided sampler along stage 0, and the tightened 2%
           tail-ceiling envelope would catch the resulting collapse —
           so this case pins the ranking contract. *)
        match
          Checked.pipeline_of_moments ~mus:[| 100.0; 90.0 |]
            ~sigmas:[| 3.0; 6.0 |] ~rho:0.0 ()
        with
        | Ok p -> Spv_engine.Engine.Ctx.of_pipeline p
        | Error e -> failwith (Errors.to_string e));
  ]

let run_all () =
  List.map
    (fun c ->
      let o = run_case c in
      (c, o, verdict c o))
    (corpus ())

let failures results =
  List.filter_map
    (fun (c, o, v) -> match v with Pass -> None | Fail msg -> Some (c, o, msg))
    results
