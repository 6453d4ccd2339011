open Helpers
module I = Spv_analysis.Interval
module A = Spv_analysis.Affine
module As = Spv_analysis.Affine_sta
module B = Spv_analysis.Bounds
module Cf = Spv_analysis.Certify
module Rp = Spv_analysis.Report
module Ck = Spv_robust.Checked
module Errors = Spv_robust.Errors
module Engine = Spv_engine.Engine
module Gen = Spv_circuit.Generators
module Ds = Spv_core.Design_space
module Rng = Spv_stats.Rng

let tech = Spv_process.Tech.bptm70

let gate_ctx nets =
  Engine.Ctx.of_circuits ~ff:(Spv_process.Flipflop.default tech) tech nets

let seed_gate_ctx () =
  gate_ctx (Gen.inverter_chain_pipeline ~stages:3 ~depth:8 ())

let moment_ctx () =
  let stages =
    Array.map2
      (fun mu sigma -> Spv_core.Stage.of_moments ~mu ~sigma ())
      [| 100.0; 95.0; 90.0; 105.0 |] [| 5.0; 4.0; 3.0; 6.0 |]
  in
  Engine.Ctx.of_pipeline
    (Spv_core.Pipeline.make stages
       ~corr:(Spv_stats.Correlation.uniform ~n:4 ~rho:0.3))

(* ---- interval extensions --------------------------------------------- *)

let test_interval_extensions () =
  let a = I.make ~lo:(-1.0) ~hi:3.0 in
  check_float "neg lo" (-3.0) (I.lo (I.neg a));
  check_float "neg hi" 1.0 (I.hi (I.neg a));
  check_float "sym lo" (-2.5) (I.lo (I.sym 2.5));
  check_float "sym hi" 2.5 (I.hi (I.sym 2.5));
  check_float "sym takes |r|" 2.5 (I.hi (I.sym (-2.5)));
  let b = I.make ~lo:(-2.0) ~hi:5.0 in
  (* mul must hull all four products: {-1,3} x {-2,5}. *)
  check_float "mul lo" (-6.0) (I.lo (I.mul a b));
  check_float "mul hi" 15.0 (I.hi (I.mul a b));
  check_float "mul by point scalar" (-2.0) (I.lo (I.mul a (I.point 2.0)));
  check_float "mul by negative point" (-15.0)
    (I.lo (I.mul b (I.point (-3.0))))

(* ---- affine ops: exactness on the linear fragment --------------------- *)

let sym_a = A.Factor 0
let sym_b = A.Factor 1

let form ?(events = 0) ?(rem = I.point 0.0) center terms =
  A.make ~events ~center ~terms ~rem ()

let test_affine_linear_ops () =
  let x = form 2.0 [ (sym_a, 1.0); (sym_b, 0.5) ] in
  let y = form 1.0 [ (sym_a, -1.0) ] in
  let s = A.add x y in
  check_float "add center" 3.0 (A.center s);
  check_float "add merges shared symbol" 0.0 (A.coeff s sym_a);
  check_float "add keeps other symbol" 0.5 (A.coeff s sym_b);
  Alcotest.(check int) "zero coeffs dropped" 1 (A.n_terms s);
  let d = A.sub x y in
  check_float "sub center" 1.0 (A.center d);
  check_float "sub coeff" 2.0 (A.coeff d sym_a);
  let sc = A.scale x (-2.0) in
  check_float "scale center" (-4.0) (A.center sc);
  check_float "scale coeff" (-1.0) (A.coeff sc sym_b);
  check_float "sigma is RSS" (sqrt 1.25) (A.sigma x);
  check_float "linear radius is L1" 1.5 (A.linear_radius x);
  check_float "add_const" 7.0 (A.center (A.add_const x 5.0));
  (* events propagate through every composition. *)
  let ex = form ~events:2 0.0 [] and ey = form ~events:3 0.0 [] in
  Alcotest.(check int) "events add" 5 (A.events (A.add ex ey));
  Alcotest.(check int) "events sub" 5 (A.events (A.sub ex ey));
  check_raises_invalid "negative events" (fun () ->
      ignore (form ~events:(-1) 0.0 []));
  check_raises_invalid "NaN center" (fun () -> ignore (form Float.nan []))

let test_affine_escape_budget () =
  let k = 6.0 in
  let x = form ~events:2 0.0 [ (sym_a, 1.0); (sym_b, 1.0) ] in
  let expected =
    float_of_int (2 + 2 + 1) *. 2.0 *. Spv_stats.Special.big_phi (-.k)
  in
  check_close "escape = (n + events + 1) 2Phi(-k)" expected
    (A.escape_probability ~k x);
  (* An undecided max2 charges exactly one new event. *)
  let y = form 0.1 [ (sym_a, -1.0) ] in
  let m = A.max2 ~k (form 0.0 [ (sym_a, 1.0) ]) y in
  Alcotest.(check int) "max2 adds one event" 1 (A.events m);
  (* A range-decided max2 returns the winner unchanged: no event. *)
  let lo = form 0.0 [ (sym_a, 1.0) ] and hi = form 100.0 [ (sym_a, 1.0) ] in
  Alcotest.(check int) "decided max2 adds no event" 0
    (A.events (A.max2 ~k lo hi));
  check_float "decided max2 is the winner" 100.0
    (A.center (A.max2 ~k lo hi))

(* max2 under Gaussian worlds: the result's eval_interval must contain
   the true max of exact operands on (essentially) every draw — the
   chord event fails with probability ~2Phi(-6) per max, invisible at
   this sample size and seed. *)
let test_affine_max2_soundness_mc () =
  let k = 6.0 in
  let rng = Rng.create ~seed:20260807 in
  let syms = [| A.Factor 0; A.Factor 1; A.Factor 2; A.Sys 0 |] in
  for _trial = 1 to 200 do
    let rand_form () =
      let terms =
        Array.to_list
          (Array.map (fun s -> (s, Rng.uniform rng ~lo:(-2.0) ~hi:2.0)) syms)
      in
      form (Rng.uniform rng ~lo:(-5.0) ~hi:5.0) terms
    in
    let x = rand_form () and y = rand_form () and z = rand_form () in
    let m = A.max_many ~k [| x; y; z |] in
    for _draw = 1 to 50 do
      let eps = Array.map (fun _ -> Rng.gaussian rng) syms in
      let at s =
        match s with
        | A.Factor j -> eps.(j)
        | A.Sys 0 -> eps.(3)
        | _ -> 0.0
      in
      let value_of f = I.lo (A.eval_interval f at) in
      let truth = Float.max (value_of x) (Float.max (value_of y) (value_of z)) in
      let enc = A.eval_interval m at in
      if not (I.contains ~slack:1e-9 enc truth) then
        Alcotest.failf "max escaped: %g outside [%g, %g]" truth (I.lo enc)
          (I.hi enc)
    done
  done

(* Dust absorption: tiny coefficients move into the remainder (box
   transfer), the escape budget keeps counting them, and a
   near-cancelled tie lands on the step-function branch of cdf_bounds
   instead of Phi(0) = 1/2. *)
let test_affine_absorb_dust () =
  let k = 6.0 in
  let x = form 1.0 [ (sym_a, 2.0); (sym_b, 1e-14) ] in
  let d = A.absorb_dust ~k ~eps:1e-9 x in
  Alcotest.(check int) "dust term dropped" 1 (A.n_terms d);
  check_float "real coefficient kept" 2.0 (A.coeff d sym_a);
  check_float ~eps:1e-20 "remainder widened by k |coeff|" (6e-14)
    (I.hi (A.rem d));
  Alcotest.(check int) "absorbed term charged as an event" 1 (A.events d);
  (* The escape budget is unchanged: one fewer term, one more event. *)
  check_float "escape budget preserved" (A.escape_probability ~k x)
    (A.escape_probability ~k d);
  let clean = A.absorb_dust ~k ~eps:1e-9 (form 1.0 [ (sym_a, 2.0) ]) in
  Alcotest.(check int) "no dust: unchanged" 0 (A.events clean);
  (* An association-order tie: (a + b) - (a + b) computed through
     different groupings leaves dust, and the dust-absorbed difference
     must read as a sure tie, not a coin flip. *)
  let tie = A.sub (form 0.0 [ (sym_a, 0.1 +. 0.2) ]) (form 0.0 [ (sym_a, 0.3) ]) in
  Alcotest.(check bool) "dust survives exact subtraction" true
    (A.n_terms tie > 0);
  let b = A.cdf_bounds ~k (A.absorb_dust ~k ~eps:1e-9 tie) 0.0 in
  check_in_range "tie reads as a step, not 1/2" ~lo:0.99 ~hi:1.0 (I.hi b);
  check_raises_invalid "negative eps" (fun () ->
      ignore (A.absorb_dust ~k ~eps:(-1.0) x));
  check_raises_invalid "invalid k" (fun () ->
      ignore (A.absorb_dust ~k:0.0 ~eps:1e-9 x))

(* Remainder separation: a deep max chain over forms with remainders
   must not accumulate the sum of all remainders. *)
let test_affine_max2_remainder_separation () =
  let k = 6.0 in
  let rem = I.make ~lo:(-1.0) ~hi:1.0 in
  let chain =
    Array.init 32 (fun i ->
        form ~rem (float_of_int (i mod 3)) [ (A.Factor i, 1.0) ])
  in
  let m = A.max_many ~k chain in
  (* Summed remainders would reach width 64; the hull + per-max
     Chebyshev stays bounded by a small multiple of one operand's. *)
  if I.width (A.rem m) > 20.0 then
    Alcotest.failf "remainder piled up: width %g" (I.width (A.rem m))

(* ---- 10k-sample containment (model and gate level) -------------------- *)

let test_model_containment_10k () =
  let ctx = moment_ctx () in
  let a = As.of_ctx ~k:6.0 ctx in
  let samples = Engine.sample_delays ctx ~n:10_000 in
  Alcotest.(check int) "model MC samples inside delay enclosure" 0
    (I.mem_all a.As.delay samples)

let test_gate_containment_10k () =
  let ctx = seed_gate_ctx () in
  let a = As.of_ctx ~k:6.0 ctx in
  let pipe = Engine.gate_level_delays ~exact:false ctx ~n:10_000 in
  Alcotest.(check int) "gate-level MC pipeline delays inside enclosure" 0
    (I.mem_all a.As.delay pipe);
  let per_stage = Engine.gate_level_stage_samples ~exact:false ctx ~n:10_000 in
  Array.iteri
    (fun i samples ->
      Alcotest.(check int)
        (Printf.sprintf "stage %d samples inside enclosure" i)
        0
        (I.mem_all a.As.stages.(i).As.enclosure samples))
    per_stage

(* ---- nesting: affine never wider than the interval domain ------------- *)

let test_nesting_random_netlists () =
  List.iter
    (fun seed ->
      let nets =
        [|
          Gen.random_logic ~name:"r0" ~inputs:4 ~gates:30 ~depth:6 ~seed;
          Gen.random_logic ~name:"r1" ~inputs:3 ~gates:20 ~depth:5
            ~seed:(seed + 17);
        |]
      in
      let ctx = gate_ctx nets in
      let a = As.of_ctx ~k:6.0 ctx in
      let inside tight wide =
        I.lo tight >= I.lo wide -. 1e-9 && I.hi tight <= I.hi wide +. 1e-9
      in
      Array.iteri
        (fun i (s : As.stage) ->
          let total = a.As.bounds.B.stages.(i).B.total in
          if not (inside s.As.enclosure total) then
            Alcotest.failf "seed %d stage %d enclosure escapes interval" seed i;
          check_in_range "stage ratio" ~lo:0.0 ~hi:1.0 s.As.width_ratio)
        a.As.stages;
      if not (inside a.As.delay a.As.bounds.B.delay) then
        Alcotest.failf "seed %d pipeline enclosure escapes interval" seed;
      check_in_range "pipeline ratio" ~lo:0.0 ~hi:1.0 a.As.delay_ratio)
    [ 1; 2; 3 ]

let test_nesting_and_tightness_iscas () =
  let ctx = gate_ctx [| Gen.c432 () |] in
  let a = As.of_ctx ~k:6.0 ctx in
  check_in_range "c432 strictly tighter" ~lo:0.0 ~hi:0.999 a.As.delay_ratio;
  check_in_range "c432 escape tiny" ~lo:0.0 ~hi:1e-3 a.As.escape;
  let samples = Engine.gate_level_delays ~exact:false ctx ~n:10_000 in
  Alcotest.(check int) "c432 MC containment" 0 (I.mem_all a.As.delay samples)

(* ---- yield envelope and estimate checks ------------------------------- *)

let test_yield_envelope_and_checks () =
  let ctx = moment_ctx () in
  let a = As.of_ctx ~k:6.0 ctx in
  let t_target = 112.0 in
  let y = As.yield_bounds a ~t_target in
  let frechet = B.yield_bounds a.As.bounds ~t_target in
  Alcotest.(check bool) "envelope nests in Frechet" true
    (I.lo y >= I.lo frechet -. 1e-12 && I.hi y <= I.hi frechet +. 1e-12);
  List.iter
    (fun method_ ->
      let e = Engine.yield ~method_ ctx ~t_target in
      match As.check ~t_target a e with
      | B.Pass _ -> ()
      | B.Fail _ ->
          Alcotest.failf "%s estimate outside affine envelope"
            (Engine.method_name method_))
    [ Engine.Analytic_clark; Engine.Exact_independent; Engine.Quadrature ];
  let e = Engine.delay_mean ~method_:Engine.Analytic_clark ctx in
  (match As.check a e with
  | B.Pass _ -> ()
  | B.Fail _ -> Alcotest.fail "Clark mean outside affine mean envelope");
  let findings = As.findings ~t_target a in
  Alcotest.(check bool) "findings non-empty" true (findings <> []);
  Alcotest.(check bool) "no degenerate errors at k=6" true
    (List.for_all (fun f -> f.Rp.severity <> Rp.Error) findings)

let test_engine_check_stacking () =
  let ctx = moment_ctx () in
  Fun.protect
    ~finally:(fun () ->
      Engine.set_debug_checks false;
      Engine.set_estimate_check ~name:"stacked boom" None)
    (fun () ->
      B.install_engine_check ();
      As.install_engine_check ();
      Engine.set_debug_checks true;
      let e = Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target:110.0 in
      check_in_range "stacked checks pass" ~lo:0.0 ~hi:1.0 e.Engine.value;
      Engine.set_estimate_check ~name:"stacked boom"
        (Some (fun _ ~t_target:_ _ -> Error "stacked boom"));
      (match
         Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target:110.0
       with
      | exception Failure msg ->
          Alcotest.(check bool) "stacked check ran" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "stacked failing check must raise");
      (* [None] removes that one check and leaves the envelopes. *)
      Engine.set_estimate_check ~name:"stacked boom" None;
      let e = Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target:110.0 in
      check_in_range "removed check no longer fires" ~lo:0.0 ~hi:1.0
        e.Engine.value)

let test_engine_check_keyed () =
  let ctx = moment_ctx () in
  let runs = ref [] in
  let probe name =
    Some
      (fun _ ~t_target:_ _ ->
        runs := name :: !runs;
        Ok ())
  in
  let estimate () =
    runs := [];
    ignore (Engine.yield ~method_:Engine.Analytic_clark ctx ~t_target:110.0);
    List.rev !runs
  in
  Fun.protect
    ~finally:(fun () ->
      Engine.set_debug_checks false;
      Engine.set_estimate_check ~name:"probe" None;
      Engine.set_estimate_check ~name:"late" None)
    (fun () ->
      Engine.set_debug_checks true;
      Engine.set_estimate_check ~name:"probe" (probe "probe");
      Engine.set_estimate_check ~name:"probe" (probe "probe");
      Alcotest.(check (list string)) "installed twice, runs once"
        [ "probe" ] (estimate ());
      (* Affine before interval: the order that used to drop the
         affine check must not drop anything else either. *)
      As.install_engine_check ();
      B.install_engine_check ();
      Engine.set_estimate_check ~name:"late" (probe "late");
      Alcotest.(check (list string))
        "probes survive both installs and run in first-install order"
        [ "probe"; "late" ] (estimate ());
      Engine.set_estimate_check ~name:"probe" (probe "probe again");
      Alcotest.(check (list string)) "replacing keeps the slot"
        [ "probe again"; "late" ] (estimate ());
      Engine.set_estimate_check ~name:"probe" None;
      Alcotest.(check (list string)) "None removes" [ "late" ] (estimate ()))

(* ---- certificates ----------------------------------------------------- *)

let pt mu sigma = { Ds.mu; Ds.sigma }

let test_certify_verdicts () =
  (* All stages far inside: Frechet lower bound proves. *)
  let proved =
    Cf.of_points ~t_target:100.0 ~yield:0.9
      [| pt 50.0 5.0; pt 60.0 5.0; pt 55.0 4.0 |]
  in
  Alcotest.(check string) "proved" "proved" (Cf.status_name proved.Cf.status);
  Alcotest.(check bool) "no counterexample" true
    (proved.Cf.counterexample = None);
  (* One stage misses the pipeline target outright: refuted with that
     stage as the counterexample, under any dependence. *)
  let refuted =
    Cf.of_points ~t_target:100.0 ~yield:0.9
      [| pt 50.0 5.0; pt 99.0 10.0 |]
  in
  Alcotest.(check string) "refuted" "refuted" (Cf.status_name refuted.Cf.status);
  (match refuted.Cf.counterexample with
  | Some c -> Alcotest.(check int) "counterexample stage" 1 c.Cf.stage
  | None -> Alcotest.fail "refuted certificate must carry a counterexample");
  Alcotest.(check bool) "refuting finding is an error" true
    (List.exists (fun f -> f.Rp.severity = Rp.Error) (Cf.findings refuted));
  (* Stage yields sit just above yield^(1/n): the independence product
     clears the target but the dependence-free Fréchet lower bound does
     not, so without a correlation sign the certificate cannot decide. *)
  let n = 20 in
  let phi = (0.9 ** (1.0 /. float_of_int n)) +. 1e-4 in
  let z = Spv_stats.Special.big_phi_inv phi in
  let stages = Array.make n (pt 100.0 10.0) in
  let t_target = 100.0 +. (10.0 *. z) in
  let marginal = Cf.of_points ~t_target ~yield:0.9 stages in
  Alcotest.(check string) "inconclusive" "inconclusive"
    (Cf.status_name marginal.Cf.status);
  (* The same design proves once nonnegative correlation enables the
     Slepian product path. *)
  let slepian =
    Cf.of_points ~nonneg_correlation:true ~t_target ~yield:0.9 stages
  in
  Alcotest.(check string) "slepian proves" "proved"
    (Cf.status_name slepian.Cf.status);
  Alcotest.(check bool) "product reached target" true
    (slepian.Cf.product_yield >= 0.9);
  check_raises_invalid "empty stages" (fun () ->
      ignore (Cf.of_points ~t_target:100.0 ~yield:0.9 [||]));
  check_raises_invalid "yield out of range" (fun () ->
      ignore (Cf.of_points ~t_target:100.0 ~yield:0.4 [| pt 50.0 5.0 |]));
  check_raises_invalid "negative sigma" (fun () ->
      ignore (Cf.of_points ~t_target:100.0 ~yield:0.9 [| pt 50.0 (-1.0) |]))

let test_certify_of_ctx () =
  let ctx = moment_ctx () in
  let c = Cf.of_ctx ~yield:0.9 ctx in
  Alcotest.(check bool) "positive uniform correlation detected" true
    c.Cf.nonneg_correlation;
  Alcotest.(check string) "mu+3sigma default target proves" "proved"
    (Cf.status_name c.Cf.status)

let test_certify_parse () =
  let good =
    "# comment\n\
     t_target 100.0\n\
     yield 0.9\n\
     stage 1 60.0\t5.0  # tabs and trailing comments\n\
     stage 0 50.0 4.0\n"
  in
  (match Cf.parse_solution good with
  | Ok s ->
      check_float "t_target" 100.0 s.Cf.sol_t_target;
      check_float "yield" 0.9 s.Cf.sol_yield;
      check_float "stage order restored" 50.0 s.Cf.points.(0).Ds.mu;
      check_float "stage 1 sigma" 5.0 s.Cf.points.(1).Ds.sigma
  | Error e -> Alcotest.failf "good solution rejected: %s" e);
  let expect_error name text =
    match Cf.parse_solution text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed solution accepted" name
  in
  expect_error "missing t_target" "yield 0.9\nstage 0 1 1\n";
  expect_error "missing yield" "t_target 10\nstage 0 1 1\n";
  expect_error "no stages" "t_target 10\nyield 0.9\n";
  expect_error "duplicate stage"
    "t_target 10\nyield 0.9\nstage 0 1 1\nstage 0 2 2\n";
  expect_error "gap in indices" "t_target 10\nyield 0.9\nstage 1 1 1\n";
  expect_error "bad float" "t_target ten\nyield 0.9\nstage 0 1 1\n";
  expect_error "unknown directive" "t_target 10\nyield 0.9\nfrobnicate 1\n"

let test_certify_robust_wrappers () =
  let certify points =
    Ck.protect ~where:"certify" (fun () ->
        Cf.of_points ~t_target:100.0 ~yield:0.9 points)
  in
  (match certify [| pt 99.0 10.0 |] with
  | Ok c -> (
      match Ck.certificate_error c with
      | Some err ->
          Alcotest.(check int) "refutation exits 8" 8 (Errors.exit_code err)
      | None -> Alcotest.fail "refuted certificate must map to an error")
  | Error _ -> Alcotest.fail "certify must build the certificate");
  match certify [| pt 50.0 5.0 |] with
  | Ok c ->
      Alcotest.(check bool) "proved certificate has no error" true
        (Ck.certificate_error c = None)
  | Error _ -> Alcotest.fail "certify must build the certificate"

let test_sizing_hook () =
  let module H = Spv_sizing.Certify_hook in
  Cf.install_sizing_check ();
  (* A converged report that misses its allocation must refute. *)
  (match
     H.postcondition ~where:"test" ~t_target:100.0 ~z:2.0 ~converged:true
       ~mu:95.0 ~sigma:10.0
   with
  | exception H.Refuted msg ->
      Alcotest.(check bool) "message names the caller" true
        (String.length msg > 5 && String.sub msg 0 5 = "test:")
  | () -> Alcotest.fail "missed allocation must raise");
  (* Checked.protect maps the exception onto Certificate_refuted. *)
  (match
     Ck.protect ~where:"test" (fun () ->
         H.postcondition ~where:"test" ~t_target:100.0 ~z:2.0 ~converged:true
           ~mu:95.0 ~sigma:10.0)
   with
  | Error err -> Alcotest.(check int) "exit code 8" 8 (Errors.exit_code err)
  | Ok () -> Alcotest.fail "protect must surface the refutation");
  (* Meeting the allocation and unconverged reports both pass. *)
  H.postcondition ~where:"test" ~t_target:100.0 ~z:2.0 ~converged:true
    ~mu:80.0 ~sigma:5.0;
  H.postcondition ~where:"test" ~t_target:100.0 ~z:2.0 ~converged:false
    ~mu:95.0 ~sigma:10.0

(* ---- report schema ---------------------------------------------------- *)

let find_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let test_schema_version () =
  Alcotest.(check int) "schema version" 4 Rp.schema_version;
  let doc = Rp.to_json (Rp.of_findings [ Rp.finding ~pass:"p" "m" ]) in
  let tag = Printf.sprintf "\"schema_version\": %d" Rp.schema_version in
  match (find_substring ~needle:tag doc, find_substring ~needle:"findings" doc) with
  | Some sv, Some fd ->
      Alcotest.(check bool) "schema_version precedes findings" true (sv < fd)
  | None, _ -> Alcotest.fail "schema_version tag missing from JSON"
  | _, None -> Alcotest.fail "findings array missing from JSON"

let suite =
  [
    quick "interval extensions" test_interval_extensions;
    quick "affine linear ops" test_affine_linear_ops;
    quick "affine escape budget" test_affine_escape_budget;
    slow "max2 soundness (MC)" test_affine_max2_soundness_mc;
    quick "absorb_dust" test_affine_absorb_dust;
    quick "max2 remainder separation" test_affine_max2_remainder_separation;
    slow "model containment 10k" test_model_containment_10k;
    slow "gate containment 10k" test_gate_containment_10k;
    quick "nesting on random netlists" test_nesting_random_netlists;
    slow "nesting and tightness on c432" test_nesting_and_tightness_iscas;
    quick "yield envelope and checks" test_yield_envelope_and_checks;
    quick "engine check stacking" test_engine_check_stacking;
    quick "engine checks keyed by name" test_engine_check_keyed;
    quick "certify verdicts" test_certify_verdicts;
    quick "certify of_ctx" test_certify_of_ctx;
    quick "certify parser" test_certify_parse;
    quick "certify robust wrappers" test_certify_robust_wrappers;
    quick "sizing hook" test_sizing_hook;
    quick "schema version" test_schema_version;
  ]
