(* Command-line front end: run the paper's experiments individually or
   interrogate the library (yield queries, STA, sizing) without writing
   OCaml.

   Every command funnels its failures through Spv_robust.Errors, so
   each failure class gets a one-line stderr message and a distinct
   exit code (Io 2, Parse 3, Lint 4, Numeric 5, Domain 6, Internal 7,
   Certificate refuted 8); cmdliner keeps its own 124 for command-line
   syntax errors. *)

open Cmdliner
module Errors = Spv_robust.Errors
module Checked = Spv_robust.Checked
module Engine = Spv_engine.Engine

let ( let* ) = Result.bind

let warn msg = Printf.eprintf "warning: %s\n%!" msg

(* Terminal adapter: print the typed error on stderr and exit with its
   documented code.  Commands return (unit, Errors.t) result. *)
let handle = function
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "spv_cli: %s\n%!" (Errors.to_string e);
      exit (Errors.exit_code e)

(* ---- shared circuit lookup ---------------------------------------- *)

(* The builtin table lives in Spv_workload.Grid so grid files and the
   CLI resolve the same names; Checked.lookup_circuit adds the .bench
   path fallback and typed errors. *)
let lookup_circuit name = Checked.lookup_circuit ~on_warning:warn name

let circuit_arg =
  let doc =
    "Benchmark circuit name (c432, c1908, c2670, c3540, rca8, alu8, dec4, \
     chain10) or a path to a .bench netlist file."
  in
  Arg.(required & opt (some string) None & info [ "c"; "circuit" ] ~doc)

(* Substring search for the smoke self-checks: the offset of the first
   [needle] in [hay]. *)
let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find_substring hay needle <> None

(* ---- shared technology and moment arguments ------------------------ *)

(* Every circuit command analyses the default 70 nm-like node with its
   default flip-flop. *)
let tech = Spv_process.Tech.bptm70
let ff = Spv_process.Flipflop.default tech

(* --mu/--sigma/--rho for every command that takes a pipeline as stage
   moments.  None is required by the parser: a missing --mu is the
   Domain error (exit 6) of the moment validation. *)
let mus_arg =
  let doc = "Stage mean delays in ps (repeatable)." in
  Arg.(value & opt_all float [] & info [ "mu" ] ~doc)

let sigmas_arg =
  let doc = "Stage delay sigmas in ps (repeatable, same count as --mu)." in
  Arg.(value & opt_all float [] & info [ "sigma" ] ~doc)

let rho_arg =
  let doc = "Uniform stage-delay correlation coefficient." in
  Arg.(value & opt float 0.0 & info [ "rho" ] ~doc)

(* ---- shared pipeline-source arguments ------------------------------ *)

(* [mc] and [analyze] take a pipeline either as stage circuits or as
   --mu/--sigma/--rho moments, never both. *)
type sources = {
  circuits : string list;
  mus : float list;
  sigmas : float list;
  rho : float;
}

let sources_arg =
  let circuits =
    let doc =
      "Pipeline stage circuit (repeatable; builtin name or .bench path).  \
       Mutually exclusive with --mu/--sigma."
    in
    Arg.(value & opt_all string [] & info [ "c"; "circuit" ] ~doc)
  in
  Term.(
    const (fun circuits mus sigmas rho -> { circuits; mus; sigmas; rho })
    $ circuits $ mus_arg $ sigmas_arg $ rho_arg)

(* The engine context of a pipeline source.  [mode] applies to circuit
   pipelines; moment pipelines have no netlists to decompose, so the
   hierarchical mode is refused on them. *)
let engine_ctx_of_sources ?(mode = Engine.Flat) s =
  match (s.circuits, s.mus) with
  | [], [] ->
      Error
        (Errors.domain ~param:"--circuit"
           "give at least one --circuit, or --mu/--sigma moments")
  | _ :: _, _ :: _ ->
      Error
        (Errors.domain ~param:"--circuit"
           "give either --circuit or --mu/--sigma, not both")
  | [], mus ->
      if mode = Engine.Hierarchical then
        Error
          (Errors.domain ~param:"--hier"
             "requires --circuit (moment pipelines have no netlists to \
              decompose)")
      else
        let* p =
          Checked.pipeline_of_moments ~on_warning:warn ~mus:(Array.of_list mus)
            ~sigmas:(Array.of_list s.sigmas) ~rho:s.rho ()
        in
        Checked.protect ~where:"engine context" (fun () ->
            Engine.Ctx.of_pipeline p)
  | names, [] ->
      let* nets =
        List.fold_left
          (fun acc name ->
            let* acc = acc in
            let* net = lookup_circuit name in
            Ok (net :: acc))
          (Ok []) names
      in
      Checked.protect ~where:"engine context" (fun () ->
          Engine.Ctx.of_circuits ~mode ~ff tech (Array.of_list (List.rev nets)))

(* ---- shared sizing argument ---------------------------------------- *)

let stage_yield_arg =
  let doc = "Stage yield budget in (0.5, 1) defining z." in
  Arg.(value & opt float 0.9457 & info [ "stage-yield" ] ~doc)

(* The per-stage sigma multiplier z of a --stage-yield budget. *)
let stage_z stage_yield =
  if stage_yield > 0.5 && stage_yield < 1.0 then
    Ok (Spv_stats.Special.big_phi_inv stage_yield)
  else Error (Errors.domain ~param:"--stage-yield" "must lie in (0.5, 1)")

(* ---- experiment command ------------------------------------------- *)

let experiments =
  [
    ("fig2", Spv_experiments.Fig2.run);
    ("fig3", Spv_experiments.Fig3.run);
    ("fig4", Spv_experiments.Fig4.run);
    ("fig5", Spv_experiments.Fig5.run);
    ("table1", Spv_experiments.Table1.run);
    ("fig7", Spv_experiments.Fig7_8.run);
    ( "table2",
      fun () ->
        Spv_experiments.Common.section
          "Table II: ensuring the 80% yield target with small area penalty";
        Spv_experiments.Table2_3.print_table
          (Spv_experiments.Table2_3.compute Spv_experiments.Table2_3.Ensure_yield) );
    ( "table3",
      fun () ->
        Spv_experiments.Common.section
          "Table III: area reduction at the 80% yield target";
        Spv_experiments.Table2_3.print_table
          (Spv_experiments.Table2_3.compute Spv_experiments.Table2_3.Minimise_area) );
    ("ablations", Spv_experiments.Ablations.run);
  ]

let experiment_cmd =
  let id =
    let doc =
      Printf.sprintf "Experiment id (%s)."
        (String.concat " " (List.map fst experiments))
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id =
    handle
      (match List.assoc_opt id experiments with
      | Some f -> Checked.protect ~where:("experiment " ^ id) f
      | None ->
          Error
            (Errors.domain ~param:"ID"
               (Printf.sprintf "unknown experiment %S (known: %s)" id
                  (String.concat ", " (List.map fst experiments)))))
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's tables/figures.")
    Term.(const run $ id)

(* ---- lint command -------------------------------------------------- *)

let lint_cmd =
  let file =
    let doc = "Path to the .bench netlist file to check." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let werror =
    let doc =
      "Treat warnings as errors: exit with the Lint code (4) when any \
       diagnostic fires, not only on hard errors."
    in
    Arg.(value & flag & info [ "werror" ] ~doc)
  in
  let run path werror =
    handle
      (let* diags = Checked.lint_bench_file path in
       List.iter
         (fun d ->
           Printf.printf "%s: %s\n" path (Errors.diagnostic_to_string d))
         diags;
       let errs =
         List.filter (fun d -> d.Errors.severity = Errors.Err) diags
       in
       match (errs, diags) with
       | [], [] ->
           Printf.printf "%s: no diagnostics\n" path;
           Ok ()
       | [], warnings when not werror ->
           Printf.printf "%s: %d warning(s), no errors\n" path
             (List.length warnings);
           Ok ()
       | [], warnings ->
           (* --werror promotes the warnings themselves into the
              Lint_error so the exit-4 contract names what fired. *)
           Error (Errors.lint ~path warnings)
       | errs, _ -> Error (Errors.lint ~path errs))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Check a .bench netlist for structural defects (loops, undriven \
          wires, multiple drivers, ...) without running any analysis.")
    Term.(const run $ file $ werror)

(* ---- yield / mc commands ------------------------------------------ *)

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo sampling.  Defaults to the SPV_JOBS \
     environment variable, else the machine's recommended domain count.  \
     Estimates are a pure function of the seed and shard count, so this \
     setting changes wall-clock time only, never the result."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)

let seed_arg =
  let doc = "Monte-Carlo RNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let yield_cmd =
  let target =
    let doc = "Clock-period target in ps." in
    Arg.(required & opt (some float) None & info [ "t"; "target" ] ~doc)
  in
  let run mus sigmas rho target jobs seed =
    handle
      (let* () =
         if Float.is_finite target then Ok ()
         else Error (Errors.domain ~param:"t_target" "must be finite")
       in
       let mus = Array.of_list mus and sigmas = Array.of_list sigmas in
       let* p =
         Checked.pipeline_of_moments ~on_warning:warn ~mus ~sigmas ~rho ()
       in
       let* ctx =
         Checked.protect ~where:"engine context" (fun () ->
             Engine.Ctx.of_pipeline p)
       in
       let tp = Engine.Ctx.delay_distribution ctx in
       Printf.printf "pipeline delay ~ N(%.2f, %.2f) ps\n"
         (Spv_stats.Gaussian.mu tp) (Spv_stats.Gaussian.sigma tp);
       Printf.printf "yield(T = %.2f ps):\n" target;
       let* clark =
         Checked.engine_yield ~method_:Engine.Analytic_clark ctx
           ~t_target:target
       in
       Printf.printf "  Clark Gaussian (eq. 9):     %.2f%%\n"
         (100.0 *. clark.Engine.value);
       let* () =
         if rho = 0.0 then
           let* exact =
             Checked.engine_yield ~method_:Engine.Exact_independent ctx
               ~t_target:target
           in
           Printf.printf "  independent exact (eq. 8):  %.2f%%\n"
             (100.0 *. exact.Engine.value);
           Ok ()
         else Ok ()
       in
       let* r = Checked.engine_yield ?jobs ~seed ctx ~t_target:target in
       Printf.printf "  Monte-Carlo:                %.2f%%  (%d samples, se \
                      %.4f, %s)\n"
         (100.0 *. r.Engine.value)
         r.Engine.n_samples r.Engine.std_error
         (Engine.stop_reason_name r.Engine.stop);
       Ok ())
  in
  Cmd.v
    (Cmd.info "yield"
       ~doc:"Pipeline yield from per-stage (mu, sigma) and a uniform rho.")
    Term.(
      const run $ mus_arg $ sigmas_arg $ rho_arg $ target $ jobs_arg
      $ seed_arg)

let mc_cmd =
  let hier =
    let doc =
      "Evaluate the circuit pipeline through the hierarchical (block-macro) \
       model; the estimate then reports its flat-vs-hierarchical error \
       bound.  Requires --circuit."
    in
    Arg.(value & flag & info [ "hier" ] ~doc)
  in
  let target =
    let doc = "Clock-period target in ps.  Required unless --smoke." in
    Arg.(value & opt (some float) None & info [ "t"; "target" ] ~doc)
  in
  let method_arg =
    let doc =
      "Estimator: clark, independent, mc, adaptive, importance or quadrature."
    in
    Arg.(value & opt string "adaptive" & info [ "m"; "method" ] ~doc)
  in
  let n =
    let doc = "Trial count for the fixed-n methods (mc, importance)." in
    Arg.(value & opt int 10_000 & info [ "n"; "samples" ] ~doc)
  in
  let shards =
    let doc =
      "Independent RNG substreams.  Part of the estimate's identity: \
       changing it changes the drawn trials (unlike --jobs)."
    in
    Arg.(value & opt int 8 & info [ "shards" ] ~doc)
  in
  let smoke =
    let doc =
      "Self-check on a built-in fixture: estimate the same tail loss with \
       adaptive MC and importance sampling, assert agreement within the \
       reported confidence intervals and that the importance estimator \
       picked the cone proposal by default, and print a one-line summary.  \
       Ignores the model arguments."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  (* The --smoke gate: a moments pipeline whose spread stage means give
     the cone analyzer a dominant stage, with the target close enough
     in that adaptive MC still resolves the loss.  Importance sampling
     must pick the cone proposal on its own, and the two estimators
     must agree within z * (se_mc + se_imp). *)
  let run_smoke seed =
    let mus = [| 100.0; 96.0; 92.0; 88.0 |]
    and sigmas = [| 5.0; 5.0; 5.0; 5.0 |] in
    let t_target = 115.0 in
    let* p =
      Checked.pipeline_of_moments ~on_warning:warn ~mus ~sigmas ~rho:0.2 ()
    in
    let* ctx =
      Checked.protect ~where:"engine context" (fun () ->
          Engine.Ctx.of_pipeline p)
    in
    let* mc =
      Checked.engine_yield ~method_:Engine.Adaptive_mc ~seed
        ~max_samples:400_000 ctx ~t_target
    in
    let* imp =
      Checked.engine_yield ~method_:Engine.Importance ~seed ~n:20_000 ctx
        ~t_target
    in
    let* () =
      match imp.Engine.proposal with
      | Some (Engine.Prop_cone _) -> Ok ()
      | used ->
          Error
            (Errors.numeric ~where:"mc --smoke"
               (Printf.sprintf
                  "importance run used proposal %S, not cone (no dominant \
                   cone on the fixture?)"
                  (match used with
                  | Some u -> Engine.proposal_used_name u
                  | None -> "none")))
    in
    let gap = Float.abs (mc.Engine.value -. imp.Engine.value) in
    let z = 5.0 in
    let allowance =
      (z *. (mc.Engine.std_error +. imp.Engine.std_error)) +. 1e-9
    in
    if gap > allowance then
      Error
        (Errors.numeric ~where:"mc --smoke"
           (Printf.sprintf
              "cone-guided importance yield %.9g vs adaptive MC %.9g: gap \
               %.3g exceeds %g sigma allowance %.3g"
              imp.Engine.value mc.Engine.value gap z allowance))
    else begin
      let ess = match imp.Engine.ess with Some e -> e | None -> 0.0 in
      Printf.printf
        "mc smoke OK: cone-guided importance agrees with adaptive MC \
         (yield %.6f vs %.6f, gap %.3g <= %.3g, ess %.0f, seed %d)\n"
        imp.Engine.value mc.Engine.value gap allowance ess seed;
      Ok ()
    end
  in
  let run sources hier target method_name n shards smoke jobs seed =
    handle
      (if smoke then run_smoke seed
       else
       let* method_ =
         match Engine.method_of_string method_name with
         | Some m -> Ok m
         | None ->
             Error
               (Errors.domain ~param:"--method"
                  (Printf.sprintf "unknown method %S (known: %s)" method_name
                     (String.concat ", "
                        (List.map Engine.method_name Engine.all_methods))))
       in
       let* target =
         match target with
         | Some t -> Ok t
         | None ->
             Error
               (Errors.domain ~param:"--target" "required unless --smoke")
       in
       let mode = if hier then Engine.Hierarchical else Engine.Flat in
       let* ctx = engine_ctx_of_sources ~mode sources in
       let* e =
         Checked.engine_yield ~method_ ?jobs ~shards ~seed ~n ctx
           ~t_target:target
       in
       Format.printf "%a@." Engine.pp_estimate e;
       Ok ())
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Yield estimate through the unified engine: any estimator from the \
          taxonomy, with deterministic domain-parallel sampling.")
    Term.(
      const run $ sources_arg $ hier $ target $ method_arg $ n $ shards $ smoke
      $ jobs_arg $ seed_arg)

(* ---- sta command --------------------------------------------------- *)

let sta_cmd =
  let run name =
    handle
      (let* net = lookup_circuit name in
       let* sta =
         Checked.protect ~where:"STA" (fun () -> Spv_circuit.Sta.run tech net)
       in
       Format.printf "%a@." Spv_circuit.Netlist.pp_stats net;
       Printf.printf "logic depth: %d\n" (Spv_circuit.Topo.depth net);
       Printf.printf "critical delay: %.1f ps (path of %d gates)\n"
         sta.Spv_circuit.Sta.delay
         (List.length sta.Spv_circuit.Sta.critical_path);
       let* g = Checked.ssta_stage ~ff tech net in
       Printf.printf "stage delay with FF: N(%.1f, %.2f) ps (sigma/mu %.2f%%)\n"
         (Spv_stats.Gaussian.mu g) (Spv_stats.Gaussian.sigma g)
         (100.0 *. Spv_stats.Gaussian.variability g);
       Ok ())
  in
  Cmd.v
    (Cmd.info "sta" ~doc:"Deterministic and statistical timing of a circuit.")
    Term.(const run $ circuit_arg)

(* ---- size command --------------------------------------------------- *)

let size_cmd =
  let target =
    let doc = "Statistical delay target (mu + z sigma) in ps." in
    Arg.(required & opt (some float) None & info [ "t"; "target" ] ~doc)
  in
  let sizer =
    let doc =
      "Sizer: $(b,lagrangian) (default) or $(b,greedy) (TILOS-style: \
       upsizes the best trial move on the critical path until the target \
       is met or no move helps)."
    in
    Arg.(
      value
      & opt (enum [ ("lagrangian", `Lagrangian); ("greedy", `Greedy) ])
          `Lagrangian
      & info [ "sizer" ] ~doc)
  in
  let run name target stage_yield sizer =
    handle
      (let* net = lookup_circuit name in
       let* z = stage_z stage_yield in
       let before = Spv_circuit.Netlist.area net in
       match sizer with
       | `Lagrangian ->
           let* r = Checked.size_stage ~ff tech net ~t_target:target ~z in
           Printf.printf
             "sized %s: area %.1f -> %.1f, stat delay %.1f ps (target \
              %.1f), %d iterations, converged: %b\n"
             name before r.Spv_sizing.Lagrangian.area
             r.Spv_sizing.Lagrangian.stat_delay target
             r.Spv_sizing.Lagrangian.iterations
             r.Spv_sizing.Lagrangian.converged;
           Ok ()
       | `Greedy ->
           let* r =
             Checked.protect ~where:"greedy sizing" (fun () ->
                 Spv_sizing.Greedy.size_stage ~ff tech net ~t_target:target
                   ~z)
           in
           Printf.printf
             "sized %s (greedy): area %.1f -> %.1f, stat delay %.1f ps \
              (target %.1f), %d move(s), converged: %b\n"
             name before r.Spv_sizing.Greedy.area
             r.Spv_sizing.Greedy.stat_delay target
             r.Spv_sizing.Greedy.moves r.Spv_sizing.Greedy.converged;
           Ok ())
  in
  Cmd.v
    (Cmd.info "size"
       ~doc:"Minimum-area gate sizing under a statistical delay constraint.")
    Term.(const run $ circuit_arg $ target $ stage_yield_arg $ sizer)

(* ---- power command --------------------------------------------------- *)

let power_cmd =
  let run name =
    handle
      (let* net = lookup_circuit name in
       let* p =
         Checked.protect ~where:"power analysis" (fun () ->
             Spv_circuit.Power.analyse tech net)
       in
       Printf.printf "dynamic (switched-cap proxy): %.1f\n"
         p.Spv_circuit.Power.dynamic;
       Printf.printf "leakage nominal:              %.1f\n"
         p.Spv_circuit.Power.leakage_nominal;
       Printf.printf "leakage mean under variation: %.1f  (tax %.2fx)\n"
         p.Spv_circuit.Power.leakage_mean
         (p.Spv_circuit.Power.leakage_mean
         /. p.Spv_circuit.Power.leakage_nominal);
       Printf.printf "leakage sigma:                %.1f\n"
         p.Spv_circuit.Power.leakage_sigma;
       Ok ())
  in
  Cmd.v
    (Cmd.info "power"
       ~doc:"Dynamic and statistical leakage power of a circuit.")
    Term.(const run $ circuit_arg)

(* ---- export command --------------------------------------------------- *)

let export_cmd =
  let out =
    let doc = "Output path; '-' for stdout (default)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~doc)
  in
  let run name out =
    handle
      (let* net = lookup_circuit name in
       if out = "-" then begin
         print_string (Spv_circuit.Bench_format.to_string net);
         Ok ()
       end
       else
         Checked.protect ~where:out (fun () ->
             Spv_circuit.Bench_format.write_file out net))
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a circuit in .bench text format.")
    Term.(const run $ circuit_arg $ out)

(* ---- criticality command ---------------------------------------------- *)

let criticality_cmd =
  let run mus sigmas =
    handle
      (let mus = Array.of_list mus and sigmas = Array.of_list sigmas in
       let* p = Checked.pipeline_of_moments ~mus ~sigmas ~rho:0.0 () in
       let* probs =
         Checked.protect ~where:"criticality" (fun () ->
             Spv_core.Stage_criticality.probabilities_analytic_independent p)
       in
       let n = Array.length mus in
       Array.iteri
         (fun i pr -> Printf.printf "stage %d: P(critical) = %.4f\n" i pr)
         probs;
       Printf.printf "entropy: %.3f nats (max for %d stages: %.3f)\n"
         (Spv_core.Stage_criticality.entropy probs)
         n
         (log (float_of_int n));
       Ok ())
  in
  Cmd.v
    (Cmd.info "criticality"
       ~doc:"Per-stage probability of being the pipeline's slowest stage.")
    Term.(const run $ mus_arg $ sigmas_arg)

(* ---- curve command ----------------------------------------------------- *)

let curve_cmd =
  let points =
    let doc = "Number of sizing runs along the curve." in
    Arg.(value & opt int 9 & info [ "n"; "points" ] ~doc)
  in
  let run name points stage_yield =
    handle
      (let* net = lookup_circuit name in
       let* z = stage_z stage_yield in
       let* pts =
         Checked.protect ~where:"area-delay curve" (fun () ->
             Spv_sizing.Area_delay.curve_points ~ff ~n_points:points tech net
               ~z)
       in
       Printf.printf "%12s %12s\n" "delay(ps)" "area";
       Array.iter
         (fun p ->
           Printf.printf "%12.1f %12.1f\n" p.Spv_core.Balance.delay
             p.Spv_core.Balance.area)
         pts;
       Ok ())
  in
  Cmd.v
    (Cmd.info "curve" ~doc:"Area-vs-delay trade-off curve of a circuit.")
    Term.(const run $ circuit_arg $ points $ stage_yield_arg)

(* ---- report command --------------------------------------------------- *)

let report_cmd =
  let k =
    let doc = "Number of paths to report." in
    Arg.(value & opt int 5 & info [ "k"; "paths" ] ~doc)
  in
  let target =
    let doc = "Optional delay target (ps) to annotate per-path yield." in
    Arg.(value & opt (some float) None & info [ "t"; "target" ] ~doc)
  in
  let run name k target =
    handle
      (let* net = lookup_circuit name in
       let* text =
         Checked.protect ~where:"timing report" (fun () ->
             Spv_circuit.Report.render ~k ?t_target:target tech net)
       in
       print_string text;
       Ok ())
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"STA-style timing report: k slowest paths with statistics.")
    Term.(const run $ circuit_arg $ k $ target)

(* ---- hold command ------------------------------------------------------ *)

let hold_cmd =
  let hold =
    let doc = "Receiving latch hold requirement in ps." in
    Arg.(value & opt float 40.0 & info [ "hold" ] ~doc)
  in
  let run name hold =
    handle
      (let* net = lookup_circuit name in
       let* short =
         Checked.protect ~where:"short-path analysis" (fun () ->
             Spv_core.Hold.short_path_delay tech net)
       in
       let* y =
         Checked.protect ~where:"hold yield" (fun () ->
             Spv_core.Hold.hold_yield_stage tech ~ff ~hold_ps:hold net)
       in
       Printf.printf "shortest path: %.1f ps nominal (sigma %.2f)\n"
         short.Spv_process.Gate_delay.nominal
         (Spv_process.Gate_delay.total_sigma short);
       Printf.printf "hold yield at %.1f ps requirement: %.2f%%\n" hold
         (100.0 *. y);
       Ok ())
  in
  Cmd.v
    (Cmd.info "hold" ~doc:"Early-mode race (hold-time) yield of a stage.")
    Term.(const run $ circuit_arg $ hold)

(* ---- fmax command -------------------------------------------------------- *)

let fmax_cmd =
  let run mus sigmas rho =
    handle
      (let mus = Array.of_list mus and sigmas = Array.of_list sigmas in
       let* p =
         Checked.pipeline_of_moments ~on_warning:warn ~mus ~sigmas ~rho ()
       in
       (* Every quantile is computed before anything is printed, so a
          non-positive delay quantile fails with empty stdout. *)
       let* (mean, std), quantiles =
         Checked.protect ~where:"FMAX" (fun () ->
             ( Spv_core.Fmax.mean_std p,
               List.map
                 (fun q -> (q, Spv_core.Fmax.quantile p ~p:q))
                 [ 0.05; 0.25; 0.5; 0.75; 0.95 ] ))
       in
       Printf.printf "FMAX mean %.4f GHz, sigma %.4f GHz\n" (1000.0 *. mean)
         (1000.0 *. std);
       List.iter
         (fun (q, f) ->
           Printf.printf "  P%02.0f: %.4f GHz\n" (100.0 *. q) (1000.0 *. f))
         quantiles;
       Ok ())
  in
  Cmd.v
    (Cmd.info "fmax" ~doc:"Maximum-frequency distribution of a pipeline.")
    Term.(const run $ mus_arg $ sigmas_arg $ rho_arg)

(* ---- abb command --------------------------------------------------------- *)

let abb_cmd =
  let stages =
    let doc = "Number of inverter-chain stages." in
    Arg.(value & opt int 8 & info [ "stages" ] ~doc)
  in
  let depth =
    let doc = "Logic depth per stage." in
    Arg.(value & opt int 10 & info [ "depth" ] ~doc)
  in
  let yield =
    let doc = "Pre-ABB yield operating point in (0,1)." in
    Arg.(value & opt float 0.7 & info [ "yield" ] ~doc)
  in
  let range =
    let doc = "Body-bias delay correction range (e.g. 0.1 = +-10%)." in
    Arg.(value & opt float 0.1 & info [ "range" ] ~doc)
  in
  let run stages depth yield range =
    handle
      (if not (yield > 0.0 && yield < 1.0) then
         Error (Errors.domain ~param:"--yield" "outside (0,1)")
       else if range < 0.0 then
         Error (Errors.domain ~param:"--range" "negative")
       else
         Checked.protect ~where:"ABB" (fun () ->
             let nets =
               Spv_circuit.Generators.inverter_chain_pipeline ~stages ~depth ()
             in
             let p = Spv_core.Pipeline.of_circuits ~ff tech nets in
             let t_target = Spv_core.Yield.target_delay_for_yield p ~yield in
             let policy = { Spv_core.Adaptive.range } in
             Printf.printf
               "T = %.1f ps: yield %.1f%% -> %.1f%% with +-%.0f%% ABB \
                (mean leakage x%.2f)\n"
               t_target (100.0 *. yield)
               (100.0 *. Spv_core.Adaptive.yield_with_abb ~policy p ~t_target)
               (100.0 *. range)
               (Spv_core.Adaptive.leakage_overhead ~policy tech p)))
  in
  Cmd.v
    (Cmd.info "abb"
       ~doc:"Adaptive body-bias yield recovery on an inverter-chain pipeline.")
    Term.(const run $ stages $ depth $ yield $ range)

(* ---- vth command --------------------------------------------------------- *)

let vth_cmd =
  let slack =
    let doc = "Timing slack factor over the all-low-Vth stat delay." in
    Arg.(value & opt float 1.05 & info [ "slack" ] ~doc)
  in
  let run name slack =
    handle
      (let* net = lookup_circuit name in
       if slack < 1.0 then
         Error (Errors.domain ~param:"--slack" "must be >= 1.0")
       else
         Checked.protect ~where:"dual-Vth optimisation" (fun () ->
             let z = Spv_stats.Special.big_phi_inv 0.95 in
             let a0 =
               Spv_sizing.Multi_vth.all_low net ~delay_penalty:1.15
                 ~vth_offset:0.08
             in
             let d0 = Spv_sizing.Multi_vth.stat_delay ~ff tech net a0 ~z in
             let r =
               Spv_sizing.Multi_vth.optimise ~ff tech net
                 ~t_target:(slack *. d0) ~z
             in
             Printf.printf
               "dual-Vth at %.0f%% slack: %d/%d gates high-Vth, leakage %.1f \
                -> %.1f (-%.0f%%), stat delay %.1f ps (budget %.1f)\n"
               (100.0 *. (slack -. 1.0))
               r.Spv_sizing.Multi_vth.swapped
               (Spv_circuit.Netlist.n_gates net)
               r.Spv_sizing.Multi_vth.leakage_before
               r.Spv_sizing.Multi_vth.leakage_after
               (100.0
               *. (1.0
                  -. r.Spv_sizing.Multi_vth.leakage_after
                     /. r.Spv_sizing.Multi_vth.leakage_before))
               r.Spv_sizing.Multi_vth.stat_delay_after (slack *. d0)))
  in
  Cmd.v
    (Cmd.info "vth"
       ~doc:"Criticality-guided dual-Vth assignment for leakage recovery.")
    Term.(const run $ circuit_arg $ slack)

(* ---- analyze command ------------------------------------------------- *)

let analyze_cmd =
  let kappa =
    let doc =
      "Half-width of the bounded-variation box in sigmas: every bound holds \
       for worlds within +-k sigma per component."
    in
    Arg.(value & opt float 6.0 & info [ "k" ] ~doc)
  in
  let target =
    let doc =
      "Optional clock-period target in ps: also checks the closed-form \
       yield estimators against the Fréchet bounds."
    in
    Arg.(value & opt (some float) None & info [ "t"; "target" ] ~doc)
  in
  let hier =
    let doc =
      "Add the hierarchical pass: decompose each stage into block macros \
       and report the macro model's gap to the flat reference (per-stage \
       block counts and moment gaps, pipeline-level bound)."
    in
    Arg.(value & flag & info [ "hier" ] ~doc)
  in
  let format_arg =
    let doc =
      "Report format: $(b,text) or $(b,json).  JSON documents carry a \
       top-level schema_version field."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let run sources kappa target hier format =
    handle
      (let* ctx = engine_ctx_of_sources sources in
       let* r = Checked.analyze ~k:kappa ?t_target:target ~hier ctx in
       let report = r.Spv_analysis.Analyze.report in
       if format = `Json then
         print_string (Spv_analysis.Report.to_json report)
       else begin
         print_string (Spv_analysis.Report.to_text report);
         let b = r.Spv_analysis.Analyze.bounds in
         Printf.printf "pipeline delay bound (k=%g): %s ps\n"
           b.Spv_analysis.Bounds.k
           (Spv_analysis.Interval.to_string b.Spv_analysis.Bounds.delay);
         let a = r.Spv_analysis.Analyze.affine in
         Printf.printf
           "affine delay enclosure:      %s ps (%.0f%% of interval width, \
            escape < %.2g)\n"
           (Spv_analysis.Interval.to_string a.Spv_analysis.Affine_sta.delay)
           (100.0 *. a.Spv_analysis.Affine_sta.delay_ratio)
           a.Spv_analysis.Affine_sta.escape;
         (match r.Spv_analysis.Analyze.criticality with
         | None -> ()
         | Some cs ->
             Array.iteri
               (fun i c ->
                 Printf.printf
                   "stage %d: %d/%d gates possibly critical (%.0f%% prunable)\n"
                   i c.Spv_analysis.Static_criticality.n_active_gates
                   c.Spv_analysis.Static_criticality.n_gates
                   (100.0 *. Spv_analysis.Static_criticality.prunable_fraction c))
               cs);
         (let co = r.Spv_analysis.Analyze.cones in
          let module Cones = Spv_analysis.Cones in
          Printf.printf
            "failure cones: %d stage(s) analysed, %d cone(s), %d dominant \
             (crit lower >= %g)\n"
            (Array.length co.Cones.co_stages)
            (List.length co.Cones.co_cones)
            (List.length (Cones.dominant_cones co))
            co.Cones.co_threshold;
          match co.Cones.co_slack with
          | None -> ()
          | Some s ->
              Printf.printf
                "statistical slack:           %.2f ps nominal (sigma %.2f)\n"
                (Spv_analysis.Affine.center s) (Spv_analysis.Affine.sigma s));
         (let sv = r.Spv_analysis.Analyze.sensitivity in
          let module D = Spv_analysis.Dominance in
          if sv.D.gate_level then
            Printf.printf
              "sensitivity: %d size knob(s), %d certified, %d monotone\n"
              (List.length sv.D.certs)
              (List.length
                 (List.filter
                    (fun c -> c.D.gc_mu.Spv_analysis.Sensitivity.certified)
                    sv.D.certs))
              (List.length
                 (List.filter
                    (fun c ->
                      Spv_analysis.Sensitivity.monotone_sign c.D.gc_mu <> None)
                    sv.D.certs)));
         Printf.printf "%d finding(s): %d error(s), %d warning(s)\n"
           (List.length report.Spv_analysis.Report.findings)
           (Spv_analysis.Report.count report Spv_analysis.Report.Error)
           (Spv_analysis.Report.count report Spv_analysis.Report.Warn)
       end;
       (* Error findings surface after the report is printed, with the
          documented Lint exit code. *)
       match Checked.analysis_errors r with
       | None -> Ok ()
       | Some e -> Error e)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analysis of a pipeline: guaranteed interval delay bounds, \
          correlation-aware affine enclosures, reconvergent-fanout and \
          correlation-risk diagnostics, static criticality/prunability, \
          failure-cone criticality probabilities with statistical slack, \
          certified sensitivity enclosures (derivatives of stage moments \
          and yield in gate sizes over the design box), and \
          Fréchet/affine-envelope checks of the engine's closed-form \
          yield estimators.  Error findings exit with the lint code after \
          the report is printed.")
    Term.(const run $ sources_arg $ kappa $ target $ hier $ format_arg)

(* ---- certify command ------------------------------------------------- *)

let certify_cmd =
  let solution =
    let doc =
      "Path to a sizing-solution file ($(b,t_target <ps>), $(b,yield <p>), \
       $(b,stage <i> <mu> <sigma>) lines; '#' comments).  Mutually \
       exclusive with --mu/--sigma."
    in
    Arg.(value & opt (some string) None & info [ "s"; "solution" ] ~doc)
  in
  let target =
    let doc = "Clock-period target in ps (required with --mu)." in
    Arg.(value & opt (some float) None & info [ "t"; "target" ] ~doc)
  in
  let yield =
    let doc = "Pipeline yield target in (0.5, 1) (with --mu)." in
    Arg.(value & opt float 0.9 & info [ "yield" ] ~doc)
  in
  let nonneg =
    let doc =
      "Assume nonnegative stage correlations, enabling the Slepian prove \
       path (the independence product becomes a valid lower bound)."
    in
    Arg.(value & flag & info [ "assume-nonneg-corr" ] ~doc)
  in
  let json =
    let doc = "Emit the findings as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run solution mus sigmas target yield nonneg json =
    handle
      (let* cert =
         match (solution, mus) with
         | None, [] ->
             Error
               (Errors.domain ~param:"--solution"
                  "give a --solution file, or --mu/--sigma moments with \
                   --target")
         | Some _, _ :: _ ->
             Error
               (Errors.domain ~param:"--solution"
                  "give either --solution or --mu/--sigma, not both")
         | Some path, [] ->
             Checked.certify_solution_file ~nonneg_correlation:nonneg path
         | None, _ :: _ ->
             if List.length mus <> List.length sigmas then
               Error
                 (Errors.domain ~param:"--sigma"
                    (Printf.sprintf "%d sigmas for %d means"
                       (List.length sigmas) (List.length mus)))
             else
               let* t =
                 match target with
                 | Some t -> Ok t
                 | None ->
                     Error
                       (Errors.domain ~param:"--target"
                          "required in --mu/--sigma mode")
               in
               let points =
                 Array.of_list
                   (List.map2
                      (fun mu sigma -> { Spv_core.Design_space.mu; sigma })
                      mus sigmas)
               in
               Checked.protect ~where:"certify" (fun () ->
                   Spv_analysis.Certify.of_points ~nonneg_correlation:nonneg
                     ~t_target:t ~yield points)
       in
       let report =
         Spv_analysis.Report.sorted
           (Spv_analysis.Report.of_findings
              (Spv_analysis.Certify.findings cert))
       in
       if json then print_string (Spv_analysis.Report.to_json report)
       else begin
         print_string (Spv_analysis.Report.to_text report);
         Printf.printf
           "certificate %s: yield in [%.6f, %.6f], product %.6f, target %.6f \
            at T = %g ps\n"
           (Spv_analysis.Certify.status_name cert.Spv_analysis.Certify.status)
           cert.Spv_analysis.Certify.frechet_lo
           cert.Spv_analysis.Certify.min_yield
           cert.Spv_analysis.Certify.product_yield
           cert.Spv_analysis.Certify.yield cert.Spv_analysis.Certify.t_target
       end;
       (* A refuted certificate exits 8 after the findings are printed. *)
       match Checked.certificate_error cert with
       | None -> Ok ()
       | Some e -> Error e)
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Static sizing certificate: prove or refute that achieved stage \
          delay moments reach a pipeline yield target (the paper's eq. 10-13 \
          design space), without sampling.  A refuted certificate exits \
          with code 8 and a structured counterexample finding.")
    Term.(
      const run $ solution $ mus_arg $ sigmas_arg $ target $ yield $ nonneg
      $ json)

(* ---- sweep command -------------------------------------------------- *)

let sweep_cmd =
  let module Grid = Spv_workload.Grid in
  let module Sweep = Spv_workload.Sweep in
  let grid_file =
    let doc =
      "Path to the scenario-grid file ($(b,circuit)/$(b,stages)/$(b,targets)/\
       $(b,method)/$(b,inter_vth_mv)/... directives; see the README).  \
       Required unless --smoke."
    in
    Arg.(value & opt (some string) None & info [ "g"; "grid" ] ~docv:"FILE" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,jsonl) (one schema_version-stamped JSON object \
       per scenario) or $(b,text)."
    in
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("text", `Text) ]) `Jsonl
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let smoke =
    let doc =
      "Self-check on the built-in smoke grid: runs it at --jobs 1, 2 and 4, \
       verifies the JSONL outputs are bit-identical and schema-valid, and \
       prints a one-line summary instead of the rows.  With --hier the \
       sweep additionally runs flat, and every hierarchical row is \
       asserted to agree with its flat counterpart within the row's \
       reported hier_bound (plus sampling noise for Monte-Carlo rows)."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let hier =
    let doc =
      "Evaluate circuit scenarios through the hierarchical (block-macro) \
       model with one macro table shared across the whole sweep; rows then \
       carry hier_bound and non-zero macro cache counters."
    in
    Arg.(value & flag & info [ "hier" ] ~doc)
  in
  (* The --smoke gate: determinism really is "same bytes for any
     --jobs", so compare the serialised JSONL verbatim. *)
  let required_keys =
    [
      "\"schema_version\":"; "\"scenario\":"; "\"source\":"; "\"process\":";
      "\"method\":"; "\"t_target\":"; "\"yield\":"; "\"std_error\":";
      "\"n_samples\":"; "\"stop\":"; "\"loss\":"; "\"hier_bound\":";
      "\"macro_hits\":"; "\"macro_misses\":"; "\"ess\":"; "\"proposal\":";
    ]
  in
  let check_schema jsonl n_expected =
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
    in
    if List.length lines <> n_expected then
      Error
        (Errors.numeric ~where:"sweep --smoke"
           (Printf.sprintf "expected %d JSONL rows, got %d" n_expected
              (List.length lines)))
    else
      let bad =
        List.find_opt
          (fun l -> List.exists (fun k -> not (contains l k)) required_keys)
          lines
      in
      match bad with
      | None -> Ok ()
      | Some l ->
          Error
            (Errors.numeric ~where:"sweep --smoke"
               (Printf.sprintf "row missing a required key: %s" l))
  in
  (* With --hier every row must agree with its flat counterpart within
     the row's own reported bound: exactly for closed forms (the bound
     IS the gap), plus the usual z * se allowance when the row sampled
     the macro model's MVN. *)
  let check_hier_agreement (flat : Sweep.result) (hier : Sweep.result) =
    let z = 5.0 in
    Array.iteri
      (fun i (h : Sweep.row) ->
        let f = flat.Sweep.rows.(i) in
        let fe = f.Sweep.estimate and he = h.Sweep.estimate in
        let bound =
          match he.Engine.hier_bound with Some b -> b | None -> 0.0
        in
        let allowance =
          match he.Engine.stop with
          | Engine.Closed_form -> 1e-12
          | _ ->
              (z *. (fe.Engine.std_error +. he.Engine.std_error)) +. 0.01
        in
        let gap = Float.abs (fe.Engine.value -. he.Engine.value) in
        if gap > bound +. allowance then
          raise
            (Failure
               (Printf.sprintf
                  "scenario %d (%s/%s %s T=%g): hier yield %.9g vs flat \
                   %.9g gap %.3g exceeds bound %.3g + allowance %.3g"
                  h.Sweep.scenario.Sweep.index h.Sweep.scenario.Sweep.source
                  h.Sweep.scenario.Sweep.process
                  (Engine.method_name h.Sweep.scenario.Sweep.method_)
                  h.Sweep.scenario.Sweep.t_target he.Engine.value
                  fe.Engine.value gap bound allowance)))
      hier.Sweep.rows
  in
  let run_smoke ~hier seed =
    let grid = Grid.smoke () in
    let n = Grid.n_scenarios grid in
    let mode = if hier then Engine.Hierarchical else Engine.Flat in
    let* r1 = Checked.sweep_run ~mode ~jobs:1 ~seed grid in
    let* r2 = Checked.sweep_run ~mode ~jobs:2 ~seed grid in
    let* r4 = Checked.sweep_run ~mode ~jobs:4 ~seed grid in
    let j1 = Sweep.to_jsonl r1
    and j2 = Sweep.to_jsonl r2
    and j4 = Sweep.to_jsonl r4 in
    let* () = check_schema j1 n in
    if j1 <> j2 || j1 <> j4 then
      Error
        (Errors.numeric ~where:"sweep --smoke"
           "JSONL output differs across --jobs 1/2/4 at a fixed seed")
    else
      let* () =
        if not hier then Ok ()
        else
          let* flat = Checked.sweep_run ~jobs:1 ~seed grid in
          Checked.protect ~where:"sweep --smoke --hier" (fun () ->
              check_hier_agreement flat r1)
      in
      Printf.printf
        "sweep smoke OK: %d scenarios, %d contexts%s, bit-identical across \
         --jobs 1/2/4 (seed %d)\n"
        n r1.Sweep.n_contexts
        (if hier then " (hierarchical, flat agreement within bounds)" else "")
        seed;
      Ok ()
  in
  let print_text (r : Sweep.result) =
    Array.iter
      (fun (row : Sweep.row) ->
        let s = row.Sweep.scenario in
        let e = row.Sweep.estimate in
        Printf.printf
          "[%d] %s/%s %s T=%g: yield %.6f (se %.3g, n=%d, %s), loss %.3g\n"
          s.Sweep.index s.Sweep.source s.Sweep.process
          (Engine.method_name s.Sweep.method_)
          s.Sweep.t_target e.Engine.value e.Engine.std_error
          e.Engine.n_samples
          (Engine.stop_reason_name e.Engine.stop)
          row.Sweep.loss)
      r.Sweep.rows;
    Printf.printf "%d scenario(s), %d context(s) built\n"
      (Array.length r.Sweep.rows) r.Sweep.n_contexts
  in
  let run grid_file format smoke hier jobs seed =
    handle
      (if smoke then run_smoke ~hier seed
       else
         match grid_file with
         | None ->
             Error
               (Errors.domain ~param:"--grid" "required unless --smoke is set")
         | Some path ->
             let* grid = Checked.sweep_grid_of_file ~on_warning:warn path in
             let mode = if hier then Engine.Hierarchical else Engine.Flat in
             let* r = Checked.sweep_run ~mode ?jobs ~seed grid in
             (match format with
             | `Jsonl -> print_string (Sweep.to_jsonl r)
             | `Text -> print_text r);
             Ok ())
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Batched scenario sweep: evaluate a declarative grid (sources x \
          process overrides x estimators x clock targets) with one shared \
          engine context per (source, process) pair, streaming one JSONL \
          row per scenario.  Results are bit-identical for any --jobs at a \
          fixed seed.")
    Term.(
      const run $ grid_file $ format_arg $ smoke $ hier $ jobs_arg $ seed_arg)

(* ---- serve command -------------------------------------------------- *)

let serve_cmd =
  let module Serve = Spv_workload.Serve in
  let module Sweep = Spv_workload.Sweep in
  let socket_arg =
    let doc =
      "Listen on a Unix-domain socket at $(docv) (serving connections \
       sequentially, cache shared across clients) instead of reading \
       requests from stdin."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let capacity_arg =
    let doc = "Context-cache capacity (LRU entries)." in
    Arg.(value & opt int 32 & info [ "capacity" ] ~doc)
  in
  let max_conns_arg =
    let doc =
      "With --socket: exit after serving this many connections (default: \
       serve forever)."
    in
    Arg.(value & opt (some int) None & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let smoke_arg =
    let doc =
      "One-shot self-check: feed a fixed three-request transcript (two \
       valid requests sharing contexts, one malformed) through two fresh \
       daemons and assert byte-identical responses, sweep-schema rows \
       independent of --jobs/workers and equal to the one-shot sweep of \
       the same grid and seed, warm-cache hits on the second request, and \
       a structured error row for the malformed line."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let required_row_keys =
    [
      "\"kind\":\"row\""; "\"row\":{\"schema_version\":3"; "\"scenario\":";
      "\"source\":"; "\"process\":"; "\"method\":"; "\"t_target\":";
      "\"yield\":"; "\"std_error\":"; "\"n_samples\":"; "\"stop\":";
      "\"loss\":"; "\"hier_bound\":"; "\"macro_hits\":"; "\"macro_misses\":";
      "\"ess\":"; "\"proposal\":";
    ]
  in
  let smoke_grid =
    "stages 100,6 100,6 95,5\n\
     rho 0.3\n\
     circuit chain10\n\
     inter_vth_mv 60\n\
     targets 300:400:4\n\
     method clark,mc\n\
     samples 2000\n\
     shards 4\n"
  in
  (* 3 groups (moments nominal + chain10 x {nominal, vth60mv}), 2
     methods x 4 targets each. *)
  let smoke_groups = 3 in
  let smoke_rows = smoke_groups * 2 * 4 in
  let run_smoke () =
    let transcript () =
      let d = Serve.create () in
      let lines =
        [
          Serve.request_line ~request_id:"q1" ~seed:7 ~jobs:2 ~grid:smoke_grid
            ();
          Serve.request_line ~request_id:"q2" ~seed:7 ~jobs:4 ~workers:2
            ~grid:smoke_grid ();
          (* deliberately truncated JSON *)
          "{\"schema_version\":1,\"request_id\":\"q3\",\"grid\":";
        ]
      in
      List.concat_map (Serve.handle_line d) lines
    in
    let fail msg = Error (Errors.numeric ~where:"serve --smoke" msg) in
    let* t1 = Checked.protect ~where:"serve --smoke" transcript in
    let* t2 = Checked.protect ~where:"serve --smoke" transcript in
    let* grid = Checked.sweep_grid_of_string smoke_grid in
    let* one_shot = Checked.sweep_run ~seed:7 grid in
    if t1 <> t2 then
      fail "response transcript differs between two fresh daemons"
    else
      let rows_of rid =
        List.filter_map
          (fun l ->
            if
              contains l "\"kind\":\"row\""
              && contains l (Printf.sprintf "\"request_id\":\"%s\"" rid)
            then
              (* strip the wrapper down to the embedded sweep row *)
              let marker = "\"row\":" in
              Option.map
                (fun i ->
                  let start = i + String.length marker in
                  String.sub l start (String.length l - start - 1))
                (find_substring l marker)
            else None)
          t1
      in
      let rows1 = rows_of "q1" and rows2 = rows_of "q2" in
      let done_of rid =
        List.find_opt
          (fun l ->
            contains l "\"kind\":\"done\""
            && contains l (Printf.sprintf "\"request_id\":\"%s\"" rid))
          t1
      in
      let bad_row =
        List.find_opt
          (fun l -> List.exists (fun k -> not (contains l k)) required_row_keys)
          (List.filter (fun l -> contains l "\"kind\":\"row\"") t1)
      in
      if List.length rows1 <> smoke_rows then
        fail
          (Printf.sprintf "expected %d rows for q1, got %d" smoke_rows
             (List.length rows1))
      else if rows1 <> rows2 then
        fail "rows differ between --jobs 2/workers 1 and --jobs 4/workers 2"
      else if
        rows1 <> String.split_on_char '\n' (String.trim (Sweep.to_jsonl one_shot))
      then fail "q1 rows differ from the one-shot sweep of the same grid"
      else
        match bad_row with
        | Some l -> fail (Printf.sprintf "row missing a required key: %s" l)
        | None -> (
            match (done_of "q1", done_of "q2") with
            | Some d1, Some d2
              when contains d1
                     (Printf.sprintf "\"cache_misses\":%d" smoke_groups)
                   && contains d1 "\"cache_hits\":0"
                   && contains d2
                        (Printf.sprintf "\"cache_hits\":%d" smoke_groups) -> (
                let err =
                  List.find_opt (fun l -> contains l "\"kind\":\"error\"") t1
                in
                match err with
                | Some e
                  when contains e "\"request_id\":null"
                       && contains e "\"status\":\"parse_error\""
                       && contains e "\"code\":3" ->
                    Printf.printf
                      "serve smoke OK: %d rows, %d contexts, warm-cache \
                       hits, byte-identical across two daemons and across \
                       jobs/workers\n"
                      smoke_rows smoke_groups;
                    Ok ()
                | Some e -> fail ("malformed-request error row wrong: " ^ e)
                | None -> fail "no error row for the malformed request")
            | Some _, Some _ -> fail "done rows lack expected cache counters"
            | _ -> fail "missing done row(s)")
  in
  let run socket capacity max_conns smoke =
    handle
      (if smoke then run_smoke ()
       else
         match socket with
         | Some path ->
             Checked.protect ~where:"serve" (fun () ->
                 let d = Serve.create ~capacity () in
                 Serve.serve_socket ?max_conns d ~path)
         | None ->
             Checked.protect ~where:"serve" (fun () ->
                 let d = Serve.create ~capacity () in
                 Serve.serve_channels d stdin stdout))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Evaluation daemon: read schema-versioned JSONL sweep requests \
          (grid + seed + jobs/workers + optional deadline_ms) from stdin or \
          a Unix socket and stream back sweep rows, a done summary with \
          LRU context-cache counters per request, and structured error \
          rows mapped onto the documented exit-code taxonomy.  Replay is \
          byte-exact: responses never depend on jobs, workers or cache \
          state.")
    Term.(const run $ socket_arg $ capacity_arg $ max_conns_arg $ smoke_arg)

(* ---- fuzz command --------------------------------------------------- *)

let fuzz_cmd =
  let module Oracle = Spv_robust.Oracle in
  let module Fuzz_run = Spv_robust.Fuzz_run in
  let trials_arg =
    let doc = "Number of fuzz trials (seed-derived cases)." in
    Arg.(value & opt int 50 & info [ "trials" ] ~doc)
  in
  let max_gates_arg =
    let doc = "Per-stage gate cap of the generator." in
    Arg.(value & opt int 80 & info [ "max-gates" ] ~doc)
  in
  let oracle_arg =
    let doc =
      "Comma-separated invariant subset to check (agreement, envelope, \
       containment, nesting, certificate, replay, hier, deriv, escape).  \
       Default: all."
    in
    Arg.(value & opt (some string) None & info [ "oracle" ] ~docv:"LIST" ~doc)
  in
  let shrink_arg =
    let doc = "Delta-debug shrink every violation before filing/reporting." in
    Arg.(value & opt bool true & info [ "shrink" ] ~doc)
  in
  let corpus_arg =
    let doc =
      "Directory to file shrunk violations into as self-contained .repro \
       cases (created if missing)."
    in
    Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,jsonl) (one schema_version-stamped object per \
       trial plus a summary object) or $(b,text)."
    in
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("text", `Text) ]) `Text
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let smoke_arg =
    let doc =
      "Budgeted self-check: runs a fixed small trial count twice, verifies \
       the JSONL streams are bit-identical and schema-valid and that no \
       invariant is violated, and prints a one-line summary."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Re-run exactly one case from its printed trial seed (the complete \
       repro: circuits, mutations and process scenario are all re-derived \
       from it)."
    in
    Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"SEED" ~doc)
  in
  let clark_tol_arg =
    let doc =
      "Override the absolute Clark-vs-MC agreement allowance (default 0.02; \
       0 demands exact agreement and is the CI's deliberately-weakened \
       failure-path probe)."
    in
    Arg.(value & opt (some float) None & info [ "clark-tol" ] ~doc)
  in
  let agree_z_arg =
    let doc =
      "Override the z multiplier on combined standard errors in the \
       agreement/certificate allowances (default 5)."
    in
    Arg.(value & opt (some float) None & info [ "agree-z" ] ~doc)
  in
  let timings_arg =
    let doc =
      "Print wall-clock and trials/sec on stderr (kept out of stdout so \
       default output stays byte-identical across runs)."
    in
    Arg.(value & flag & info [ "timings" ] ~doc)
  in
  let parse_invariants s =
    let parts =
      List.filter
        (fun p -> p <> "")
        (List.map String.trim (String.split_on_char ',' s))
    in
    if parts = [] then
      Error (Errors.domain ~param:"--oracle" "empty invariant list")
    else
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          match Oracle.invariant_of_string name with
          | Some i -> Ok (acc @ [ i ])
          | None ->
              Error
                (Errors.domain ~param:"--oracle"
                   (Printf.sprintf "unknown invariant %S (known: %s)" name
                      (String.concat ", "
                         (List.map Oracle.invariant_name Oracle.all_invariants)))))
        (Ok []) parts
  in
  let required_trial_keys =
    [
      "\"schema_version\":"; "\"kind\":\"trial\""; "\"trial\":"; "\"seed\":";
      "\"stages\":"; "\"gates\":"; "\"mutations\":"; "\"process\":";
      "\"checks_run\":"; "\"violations\":"; "\"shrink_steps\":";
    ]
  in
  let smoke_trials = 6 in
  let run_smoke (cfg : Fuzz_run.config) =
    let cfg = { cfg with Fuzz_run.trials = smoke_trials } in
    let capture () =
      let buf = Buffer.create 1024 in
      let* summary =
        Checked.protect ~where:"fuzz --smoke" (fun () ->
            Fuzz_run.run
              ~on_trial:(fun t ->
                Buffer.add_string buf (Fuzz_run.trial_to_json t);
                Buffer.add_char buf '\n')
              cfg)
      in
      Buffer.add_string buf (Fuzz_run.summary_to_json summary);
      Buffer.add_char buf '\n';
      Ok (Buffer.contents buf, summary)
    in
    let* j1, s1 = capture () in
    let* j2, _ = capture () in
    if j1 <> j2 then
      Error
        (Errors.numeric ~where:"fuzz --smoke"
           "JSONL output differs between two runs at a fixed seed")
    else
      let rows =
        List.filter
          (fun l -> contains l "\"kind\":\"trial\"")
          (String.split_on_char '\n' j1)
      in
      let bad =
        List.find_opt
          (fun l ->
            List.exists (fun k -> not (contains l k)) required_trial_keys)
          rows
      in
      match bad with
      | Some l ->
          Error
            (Errors.numeric ~where:"fuzz --smoke"
               (Printf.sprintf "trial row missing a required key: %s" l))
      | None when List.length rows <> smoke_trials ->
          Error
            (Errors.numeric ~where:"fuzz --smoke"
               (Printf.sprintf "expected %d trial rows, got %d" smoke_trials
                  (List.length rows)))
      | None -> (
          match Fuzz_run.first_error s1 with
          | Some e -> Error e
          | None when s1.Fuzz_run.violations > 0 ->
              Error
                (Errors.violation ~invariant:"escape"
                   "smoke campaign recorded violations without filed findings")
          | None ->
              Printf.printf
                "fuzz smoke OK: %d trials, %d checks, bit-identical across \
                 two runs (seed %d)\n"
                s1.Fuzz_run.trials s1.Fuzz_run.checks_run s1.Fuzz_run.seed;
              Ok ())
  in
  let summary_error (s : Fuzz_run.summary) =
    match Fuzz_run.first_error s with
    | Some e -> Error e
    | None when s.Fuzz_run.violations > 0 ->
        (* violations whose case could not even be materialised carry
           no finding; still a counterexample *)
        Error
          (Errors.violation ~invariant:"escape"
             (Printf.sprintf "%d violation(s) without materialisable case"
                s.Fuzz_run.violations))
    | None -> Ok ()
  in
  let run trials seed max_gates oracle shrink corpus_dir format smoke replay
      clark_tol agree_z timings =
    handle
      (let* invariants =
         match oracle with
         | None -> Ok Oracle.all_invariants
         | Some s -> parse_invariants s
       in
       let tolerances =
         {
           Oracle.default_tolerances with
           Oracle.clark_abs =
             Option.value clark_tol
               ~default:Oracle.default_tolerances.Oracle.clark_abs;
           Oracle.agree_z =
             Option.value agree_z
               ~default:Oracle.default_tolerances.Oracle.agree_z;
         }
       in
       let cfg =
         {
           Fuzz_run.default_config with
           Fuzz_run.trials;
           seed;
           max_gates;
           tolerances;
           invariants;
           shrink;
           corpus_dir;
         }
       in
       if smoke then run_smoke cfg
       else
         let emit =
           match format with
           | `Jsonl -> fun t -> print_endline (Fuzz_run.trial_to_json t)
           | `Text -> fun t -> print_endline (Fuzz_run.trial_to_text t)
         in
         match replay with
         | Some gen_seed ->
             let* trial, _ =
               Checked.protect ~where:"fuzz --replay" (fun () ->
                   Fuzz_run.run_one cfg
                     ~macro_table:(Spv_circuit.Macro.Table.create ())
                     ~index:0 ~gen_seed)
             in
             emit trial;
             (match trial.Fuzz_run.violations with
             | [] -> Ok ()
             | v :: _ -> Error (Oracle.violation_to_error v))
         | None ->
             let* summary =
               Checked.protect ~where:"fuzz" (fun () ->
                   Fuzz_run.run ~now:Unix.gettimeofday ~on_trial:emit cfg)
             in
             (match format with
             | `Jsonl -> print_endline (Fuzz_run.summary_to_json summary)
             | `Text -> print_endline (Fuzz_run.summary_to_text summary));
             if timings then
               Printf.eprintf
                 "fuzz: %.2fs wall (%.1f trials/s), macro cache %d hit(s) / \
                  %d miss(es)\n%!"
                 summary.Fuzz_run.wall_seconds
                 (float_of_int summary.Fuzz_run.trials
                 /. Float.max 1e-9 summary.Fuzz_run.wall_seconds)
                 summary.Fuzz_run.macro_hits summary.Fuzz_run.macro_misses;
             summary_error summary)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random netlist pipelines \
          (attenuated depth/fanout/reconvergence), mutate them, draw random \
          process scenarios, and check every estimator and static pass \
          against the oracle invariants.  Violations are shrunk, filed into \
          the fault corpus, and reported with exit code 9; every finding is \
          reproducible from its printed seed alone via --replay.")
    Term.(
      const run $ trials_arg $ seed_arg $ max_gates_arg $ oracle_arg
      $ shrink_arg $ corpus_arg $ format_arg $ smoke_arg $ replay_arg
      $ clark_tol_arg $ agree_z_arg $ timings_arg)

(* ---- main ----------------------------------------------------------- *)

let () =
  (* Debug-mode postconditions: the oracles are always registered; the
     engine only consults them when SPV_DEBUG_BOUNDS is set (or a test
     enables it explicitly).  The sizing certificate is the always-on
     exit criterion: every sizer report is checked. *)
  Spv_analysis.Bounds.install_engine_check ();
  Spv_analysis.Affine_sta.install_engine_check ();
  Spv_analysis.Certify.install_sizing_check ();
  (* The importance proposal: every importance estimate asks the cone
     provider first and falls back to the legacy mixture only when it
     finds no dominant cone (the estimate's proposal field says which
     ran). *)
  Spv_analysis.Cones.install_engine_proposal ();
  (* The global sizer's certified yield skip; result-transparent
     (skips probes it would reject, never changes reports). *)
  Spv_analysis.Dominance.install_sizing_prune ();
  let doc = "statistical pipeline delay / yield toolkit (DATE'05 reproduction)" in
  let info = Cmd.info "spv_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd; lint_cmd; analyze_cmd; certify_cmd; yield_cmd;
            mc_cmd; sta_cmd; size_cmd; power_cmd; export_cmd; criticality_cmd;
            curve_cmd; report_cmd; hold_cmd; fmax_cmd; abb_cmd; vth_cmd;
            sweep_cmd; serve_cmd; fuzz_cmd;
          ]))
