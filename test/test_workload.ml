(* The sweep runner's contracts under test:

   1. Determinism: a grid's JSONL output is a pure function of the
      seed — the worker-domain count never changes a byte.

   2. Caching honesty: every row is bit-identical to the corresponding
      single-scenario engine call with the same (seed, shards, n);
      sharing a context (or, for mc and adaptive, a sampling pass)
      across scenarios
      must never change an answer.

   3. Grid files: parse errors carry the 1-based offending line, and
      expansion counts follow sources x processes x methods x targets
      with moments sources pinned to the nominal process. *)

module Grid = Spv_workload.Grid
module Sweep = Spv_workload.Sweep
module Engine = Spv_engine.Engine
module Errors = Spv_robust.Errors
module Checked = Spv_robust.Checked
module G = Spv_stats.Gaussian

let tech = Spv_process.Tech.bptm70
let bits f = Int64.bits_of_float f
let check_bits name a b = Alcotest.(check int64) name (bits a) (bits b)

let parse s =
  match Grid.of_string s with
  | Ok g -> g
  | Error e -> Alcotest.failf "unexpected parse error: %s" (Grid.parse_error_to_string e)

let expect_parse_error s ~line =
  match Grid.of_string s with
  | Ok _ -> Alcotest.failf "grid %S parsed but should not have" s
  | Error e ->
      Alcotest.(check (option int)) (Printf.sprintf "line of error in %S" s)
        (Some line) e.Grid.line

(* ---- grid parsing ---------------------------------------------------- *)

let test_grid_parse_counts () =
  let g =
    parse
      "# demo\n\
       stages 100,6 100,6 95,5\n\
       rho 0.3\n\
       stages 100,6 100,6\n\
       circuit chain10\n\
       targets 100,110\n\
       targets 120:140:3\n\
       method clark,mc\n\
       inter_vth_mv 60\n\
       samples 5000\n\
       shards 4\n"
  in
  Alcotest.(check int) "sources" 3 (List.length g.Grid.sources);
  Alcotest.(check int) "targets" 5 (Array.length g.Grid.targets);
  Alcotest.(check int) "methods" 2 (List.length g.Grid.methods);
  Alcotest.(check int) "processes" 2 (List.length g.Grid.processes);
  Alcotest.(check int) "n" 5000 g.Grid.n;
  Alcotest.(check int) "shards" 4 g.Grid.shards;
  (* targets: the lo:hi:count form is endpoint-inclusive *)
  Alcotest.(check (float 0.0)) "target hi" 140.0 g.Grid.targets.(4);
  (* moments sources expand under the nominal process only:
     2 moments x 1 x 2 methods x 5 targets + 1 circuit x 2 x 2 x 5 *)
  Alcotest.(check int) "n_scenarios" 40 (Grid.n_scenarios g);
  (* `rho` applies to `stages` lines after it, not before *)
  (match g.Grid.sources with
  | Grid.Moments { rho; _ } :: Grid.Moments { rho = rho2; _ } :: _ ->
      Alcotest.(check (float 0.0)) "rho before directive" 0.0 rho;
      Alcotest.(check (float 0.0)) "rho after directive" 0.3 rho2
  | _ -> Alcotest.fail "expected two moments sources first")

let test_grid_parse_errors_carry_lines () =
  expect_parse_error "stages 100 6\n" ~line:1;
  expect_parse_error "stages 100,6\nbogus 1\n" ~line:2;
  expect_parse_error "stages 100,6\ntargets 100:110:0\n" ~line:2;
  expect_parse_error "stages 100,6\ntargets 100\nmethod warlock\n" ~line:3;
  expect_parse_error "circuit no_such_circuit\n" ~line:1;
  expect_parse_error "stages 100,6\ntargets 100\nsamples -4\n" ~line:3;
  (* structural validation failures have no single line *)
  match Grid.of_string "stages 100,6\n" with
  | Ok _ -> Alcotest.fail "grid without targets parsed"
  | Error e -> Alcotest.(check (option int)) "no line" None e.Grid.line

let test_smoke_grid_shape () =
  let g = Grid.smoke () in
  (match Grid.validate g with
  | Ok () -> ()
  | Error m -> Alcotest.failf "smoke grid invalid: %s" m);
  Alcotest.(check int) "smoke scenarios" 120 (Grid.n_scenarios g);
  Alcotest.(check bool) "smoke is big enough for the acceptance gate" true
    (Grid.n_scenarios g >= 100)

(* ---- determinism ----------------------------------------------------- *)

let test_jsonl_bit_identical_across_jobs () =
  let g = { (Grid.smoke ()) with Grid.n = 2048 } in
  let run jobs = Sweep.to_jsonl (Sweep.run ~jobs ~seed:11 g) in
  let j1 = run 1 in
  Alcotest.(check string) "jobs 1 = jobs 2" j1 (run 2);
  Alcotest.(check string) "jobs 1 = jobs 4" j1 (run 4);
  Alcotest.(check int) "row count" (Grid.n_scenarios g)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' j1)))

(* Every row must match the single-scenario engine call a user would
   have made instead — context and Mc-pass sharing may not shift a
   single bit, for any method in the taxonomy. *)
let test_rows_match_single_scenario_calls () =
  let g =
    {
      Grid.sources =
        [
          Grid.Moments
            {
              label = "m";
              stages = [| (100.0, 6.0); (98.0, 5.0); (103.0, 7.0) |];
              rho = 0.3;
            };
          Grid.Circuit { label = "chain10"; net = Spv_circuit.Generators.inverter_chain ~depth:10 () };
        ];
      processes = [ Grid.nominal; { Grid.p_label = "vth40mv"; inter_vth_mv = Some 40.0 } ];
      targets = [| 108.0; 114.0; 122.0 |];
      methods =
        [
          Engine.Analytic_clark; Engine.Exact_independent; Engine.Quadrature;
          Engine.Mc; Engine.Adaptive_mc; Engine.Importance;
        ];
      n = 2000;
      shards = 8;
    }
  in
  let r = Sweep.run ~jobs:2 ~seed:5 ~tech g in
  Alcotest.(check int) "scenario count" 54 (Array.length r.Sweep.rows);
  Alcotest.(check int) "contexts" 3 r.Sweep.n_contexts;
  Array.iter
    (fun (row : Sweep.row) ->
      let s = row.Sweep.scenario in
      let source =
        List.find (fun src -> Grid.source_label src = s.Sweep.source) g.Grid.sources
      in
      let process =
        List.find (fun p -> p.Grid.p_label = s.Sweep.process) g.Grid.processes
      in
      let ctx = Sweep.ctx_for ~tech source process in
      let e =
        Engine.yield ~method_:s.Sweep.method_ ~jobs:1 ~shards:g.Grid.shards
          ~seed:5 ~n:g.Grid.n ctx ~t_target:s.Sweep.t_target
      in
      let name =
        Printf.sprintf "[%d] %s/%s %s T=%g" s.Sweep.index s.Sweep.source
          s.Sweep.process (Engine.method_name s.Sweep.method_) s.Sweep.t_target
      in
      check_bits (name ^ ": value") e.Engine.value
        row.Sweep.estimate.Engine.value;
      check_bits (name ^ ": std_error") e.Engine.std_error
        row.Sweep.estimate.Engine.std_error;
      Alcotest.(check int) (name ^ ": n_samples") e.Engine.n_samples
        row.Sweep.estimate.Engine.n_samples)
    r.Sweep.rows

let test_context_count_is_pair_count () =
  let chain d = Spv_circuit.Generators.inverter_chain ~depth:d () in
  let g =
    {
      Grid.sources =
        [
          Grid.Moments { label = "m"; stages = [| (100.0, 6.0) |]; rho = 0.0 };
          Grid.Circuit { label = "c4"; net = chain 4 };
          Grid.Circuit { label = "c6"; net = chain 6 };
        ];
      processes = [ Grid.nominal; { Grid.p_label = "vth60mv"; inter_vth_mv = Some 60.0 } ];
      targets = [| 100.0; 120.0 |];
      methods = [ Engine.Analytic_clark ];
      n = 100;
      shards = 2;
    }
  in
  let r = Sweep.run g in
  (* 1 moments pair (nominal only) + 2 circuits x 2 processes *)
  Alcotest.(check int) "contexts" 5 r.Sweep.n_contexts;
  Alcotest.(check int) "rows" 10 (Array.length r.Sweep.rows)

(* ---- engine multi-target sharing ------------------------------------ *)

(* A shared pass must hand every target the estimate of its own
   single-target run: value, standard error, samples drawn and stop
   reason.  The adaptive targets cover each way a target can stop: at
   the first round past [min_samples] (130), after several rounds
   (110), at the sample cap while its error is still too wide (104),
   and at the cap because p = 0 never converges (50). *)
let test_yield_targets_bit_identical_to_single () =
  let stages =
    Array.init 5 (fun i ->
        Spv_core.Stage.of_moments
          ~mu:(100.0 +. float_of_int i)
          ~sigma:(4.0 +. (0.3 *. float_of_int i))
          ())
  in
  let ctx =
    Engine.Ctx.of_pipeline
      (Spv_core.Pipeline.make stages
         ~corr:(Spv_stats.Correlation.uniform ~n:5 ~rho:0.2))
  in
  let same name (single : Engine.estimate) (shared : Engine.estimate) =
    check_bits (name ^ ": value") single.Engine.value shared.Engine.value;
    check_bits (name ^ ": std_error") single.Engine.std_error
      shared.Engine.std_error;
    Alcotest.(check int) (name ^ ": n_samples") single.Engine.n_samples
      shared.Engine.n_samples;
    Alcotest.(check string) (name ^ ": stop")
      (Engine.stop_reason_name single.Engine.stop)
      (Engine.stop_reason_name shared.Engine.stop)
  in
  let t_targets = [| 104.0; 110.0; 118.0; 130.0 |] in
  let multi =
    Engine.yield_targets ~method_:Engine.Mc ~jobs:3 ~seed:17 ~n:4096 ctx
      ~t_targets
  in
  Array.iteri
    (fun i t ->
      let single =
        Engine.yield ~method_:Engine.Mc ~jobs:1 ~seed:17 ~n:4096 ctx
          ~t_target:t
      in
      same (Printf.sprintf "mc target %g: shared pass = single pass" t)
        single multi.(i))
    t_targets;
  let t_targets = [| 130.0; 104.0; 50.0; 110.0 |] in
  let method_ = Engine.Adaptive_mc
  and batch = 512
  and min_samples = 1000
  and max_samples = 6144 in
  let singles =
    Array.map
      (fun t_target ->
        Engine.yield ~method_ ~jobs:1 ~seed:17 ~batch ~min_samples
          ~max_samples ctx ~t_target)
      t_targets
  in
  let stop_of i = Engine.stop_reason_name singles.(i).Engine.stop in
  Alcotest.(check (list string)) "adaptive stop reasons"
    [ "converged"; "sample-cap"; "sample-cap"; "converged" ]
    (List.init 4 stop_of);
  Alcotest.(check int) "130 stops at the first round past min_samples" 1024
    singles.(0).Engine.n_samples;
  Alcotest.(check bool) "110 needs several rounds" true
    (singles.(3).Engine.n_samples > 1024
    && singles.(3).Engine.n_samples < 6144);
  check_bits "50: p = 0" 0.0 singles.(2).Engine.value;
  List.iter
    (fun jobs ->
      let multi =
        Engine.yield_targets ~method_ ~jobs ~seed:17 ~batch ~min_samples
          ~max_samples ctx ~t_targets
      in
      Array.iteri
        (fun i t ->
          same
            (Printf.sprintf "adaptive jobs %d target %g: shared = single" jobs
               t)
            singles.(i) multi.(i))
        t_targets)
    [ 1; 3 ]

(* ---- deep-tail loss -------------------------------------------------- *)

let test_deep_tail_loss_rows_nonzero () =
  let g =
    {
      Grid.sources =
        [ Grid.Moments { label = "m"; stages = [| (100.0, 5.0) |]; rho = 0.0 } ];
      processes = [ Grid.nominal ];
      (* 10 sigma: the naive 1 - yield complement is exactly 0.0 here *)
      targets = [| 150.0 |];
      methods = [ Engine.Analytic_clark; Engine.Exact_independent ];
      n = 100;
      shards = 2;
    }
  in
  let r = Sweep.run g in
  Array.iter
    (fun (row : Sweep.row) ->
      let name = Engine.method_name row.Sweep.scenario.Sweep.method_ in
      Alcotest.(check bool) (name ^ ": naive complement underflows") true
        (1.0 -. row.Sweep.estimate.Engine.value = 0.0);
      Alcotest.(check bool) (name ^ ": loss stays positive") true
        (row.Sweep.loss > 0.0 && row.Sweep.loss < 1e-20))
    r.Sweep.rows

(* ---- stage-count memoisation ---------------------------------------- *)

let test_stage_count_sweep_matches_variability () =
  let stage = G.make ~mu:100.0 ~sigma:6.0 in
  let stage_counts = Array.init 10 (fun i -> 4 * (i + 1)) in
  List.iter
    (fun rho ->
      let memoised = Sweep.stage_count_sweep ~stage ~rho ~stage_counts in
      let per_count =
        Spv_core.Variability.pipeline_sigma_mu_vs_stages ~stage ~rho
          ~stage_counts
      in
      Array.iteri
        (fun i v ->
          check_bits
            (Printf.sprintf "rho=%g, %d stages" rho stage_counts.(i))
            per_count.(i) v)
        memoised)
    [ 0.0; 0.2; 0.5 ]

(* ---- JSON float hygiene ---------------------------------------------- *)

let test_json_float_nonfinite_emits_null () =
  Alcotest.(check string) "nan" "null" (Sweep.json_float Float.nan);
  Alcotest.(check string) "inf" "null" (Sweep.json_float Float.infinity);
  Alcotest.(check string) "-inf" "null" (Sweep.json_float Float.neg_infinity);
  (* finite values still round-trip bit-exactly *)
  List.iter
    (fun x ->
      check_bits
        (Printf.sprintf "%h round-trips" x)
        x
        (float_of_string (Sweep.json_float x)))
    [ 0.3; 1e-300; -4.25; 8.4075768788727465e-193; 0.0 ]

let estimate_with value =
  {
    Engine.value;
    std_error = 0.01;
    n_samples = 128;
    method_ = Engine.Importance;
    stop = Engine.Fixed_n;
    hier_bound = None;
    ess = Some 17.5;
    proposal = Some Engine.Prop_legacy;
  }

(* Regression: a NaN estimate used to print bare [nan] via %.17g —
   invalid JSON that corrupted the whole line downstream. *)
let test_row_with_nan_estimate_stays_valid_json () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let row =
    {
      Sweep.scenario =
        {
          Sweep.index = 0;
          source = "m";
          process = "nominal";
          method_ = Engine.Importance;
          t_target = 120.0;
        };
      estimate = { (estimate_with Float.nan) with Engine.ess = Some Float.nan };
      loss = Float.infinity;
      macro_hits = 0;
      macro_misses = 0;
    }
  in
  let json = Sweep.row_to_json row in
  Alcotest.(check bool) "no bare nan token" false (contains json "nan");
  Alcotest.(check bool) "no bare inf token" false (contains json "inf");
  Alcotest.(check bool) "yield nulled" true (contains json "\"yield\":null");
  Alcotest.(check bool) "loss nulled" true (contains json "\"loss\":null");
  Alcotest.(check bool) "ess nulled" true (contains json "\"ess\":null");
  Alcotest.(check bool) "finite fields untouched" true
    (contains json "\"t_target\":120")

(* ---- importance loss clamping ---------------------------------------- *)

(* Regression: the Importance branch used to clamp only the derived
   yield and report the raw estimate as loss, so a self-normalised
   weight excursion could ship loss > 1 next to yield = 0. *)
let test_importance_row_clamps_loss_and_yield_together () =
  let check_pair name raw ~loss ~yield =
    let e, l = Sweep.importance_row (estimate_with raw) in
    check_bits (name ^ ": loss") loss l;
    check_bits (name ^ ": yield") yield e.Engine.value;
    Alcotest.(check bool) (name ^ ": consistent") true
      (Float.abs (e.Engine.value +. l -. 1.0) < 1e-15)
  in
  check_pair "excursion above 1" 1.25 ~loss:1.0 ~yield:0.0;
  check_pair "excursion below 0" (-0.25) ~loss:0.0 ~yield:1.0;
  check_pair "in range untouched" 0.3 ~loss:0.3 ~yield:0.7;
  check_pair "boundary" 1.0 ~loss:1.0 ~yield:0.0

(* ---- stage_count_sweep positional contract --------------------------- *)

let test_stage_count_sweep_duplicates_and_order () =
  let stage = G.make ~mu:100.0 ~sigma:6.0 in
  let unsorted = [| 8; 4; 8; 2 |] in
  let r = Sweep.stage_count_sweep ~stage ~rho:0.3 ~stage_counts:unsorted in
  Alcotest.(check int) "positional length" 4 (Array.length r);
  check_bits "duplicate counts answer identically" r.(0) r.(2);
  (* each entry equals the same count queried alone *)
  Array.iteri
    (fun i n ->
      let alone =
        Sweep.stage_count_sweep ~stage ~rho:0.3 ~stage_counts:[| n |]
      in
      check_bits (Printf.sprintf "slot %d (n=%d)" i n) alone.(0) r.(i))
    unsorted;
  (* the documented rejections *)
  Alcotest.check_raises "empty"
    (Invalid_argument "Sweep.stage_count_sweep: no stage counts") (fun () ->
      ignore (Sweep.stage_count_sweep ~stage ~rho:0.3 ~stage_counts:[||]));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Sweep.stage_count_sweep: stage count <= 0") (fun () ->
      ignore (Sweep.stage_count_sweep ~stage ~rho:0.3 ~stage_counts:[| 3; 0 |]))

(* ---- checked wrappers ------------------------------------------------ *)

let test_checked_sweep_wrappers () =
  (match Checked.sweep_grid_of_string ~path:"g.grid" "stages 100,6\nbroken\n" with
  | Ok _ -> Alcotest.fail "broken grid accepted"
  | Error (Errors.Parse_error { path; line; _ }) ->
      Alcotest.(check (option string)) "path" (Some "g.grid") path;
      Alcotest.(check (option int)) "line" (Some 2) line
  | Error e -> Alcotest.failf "wrong error class: %s" (Errors.to_string e));
  match
    Checked.sweep_grid_of_string "stages 100,6 95,5\ntargets 100:120:3\n"
  with
  | Error e -> Alcotest.failf "valid grid rejected: %s" (Errors.to_string e)
  | Ok g -> (
      match Checked.sweep_run ~jobs:1 ~seed:3 g with
      | Error e -> Alcotest.failf "sweep_run failed: %s" (Errors.to_string e)
      | Ok r ->
          Alcotest.(check int) "rows" 3 (Array.length r.Sweep.rows);
          Array.iter
            (fun (row : Sweep.row) ->
              Alcotest.(check bool) "yield in [0,1]" true
                (row.Sweep.estimate.Engine.value >= 0.0
                && row.Sweep.estimate.Engine.value <= 1.0))
            r.Sweep.rows)

let suite =
  [
    Alcotest.test_case "grid parse: directive accumulation and counts" `Quick
      test_grid_parse_counts;
    Alcotest.test_case "grid parse: errors carry 1-based lines" `Quick
      test_grid_parse_errors_carry_lines;
    Alcotest.test_case "smoke grid: valid, 120 scenarios" `Quick
      test_smoke_grid_shape;
    Alcotest.test_case "sweep: JSONL bit-identical across jobs 1/2/4" `Quick
      test_jsonl_bit_identical_across_jobs;
    Alcotest.test_case "sweep: rows match single-scenario engine calls" `Quick
      test_rows_match_single_scenario_calls;
    Alcotest.test_case "sweep: one context per (source, process) pair" `Quick
      test_context_count_is_pair_count;
    Alcotest.test_case "engine: yield_targets = per-target runs, bit-exact"
      `Quick test_yield_targets_bit_identical_to_single;
    Alcotest.test_case "sweep: deep-tail loss rows stay nonzero" `Quick
      test_deep_tail_loss_rows_nonzero;
    Alcotest.test_case "stage_count_sweep = per-count Clark, bit-exact" `Quick
      test_stage_count_sweep_matches_variability;
    Alcotest.test_case "json_float: non-finite floats emit null" `Quick
      test_json_float_nonfinite_emits_null;
    Alcotest.test_case "row_to_json: NaN/inf estimates stay valid JSON" `Quick
      test_row_with_nan_estimate_stays_valid_json;
    Alcotest.test_case "importance_row: loss and yield clamped together"
      `Quick test_importance_row_clamps_loss_and_yield_together;
    Alcotest.test_case "stage_count_sweep: positional, duplicates allowed"
      `Quick test_stage_count_sweep_duplicates_and_order;
    Alcotest.test_case "checked wrappers: typed errors and validated rows"
      `Quick test_checked_sweep_wrappers;
  ]
