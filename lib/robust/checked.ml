module Bf = Spv_circuit.Bench_format

let ( let* ) = Result.bind

(* ---- the exception-to-typed-error boundary -------------------------- *)

(* The sizing certificate hook ([Spv_sizing.Certify_hook]) signals a
   refuted certificate through [Failure] with this marker in the
   message; it must surface as [Certificate_refuted] (exit 8), not as
   a numeric error. *)
let refutation_marker = "certificate refuted"

let is_refutation msg =
  let lm = String.length refutation_marker and l = String.length msg in
  let rec scan i =
    i + lm <= l && (String.sub msg i lm = refutation_marker || scan (i + 1))
  in
  scan 0

let protect ~where f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (Errors.domain ~param:where msg)
  | exception Failure msg when is_refutation msg ->
      Error (Errors.refuted ~what:where msg)
  | exception Failure msg -> Error (Errors.numeric ~where msg)
  | exception Sys_error msg -> Error (Errors.io ~path:where msg)
  | exception Division_by_zero ->
      Error (Errors.numeric ~where "division by zero")
  | exception Stack_overflow ->
      Error (Errors.numeric ~where "input too deeply nested (stack overflow)")
  | exception Out_of_memory ->
      Error (Errors.numeric ~where "input too large (out of memory)")
  | exception Not_found ->
      Error (Errors.internal ~where "unhandled Not_found")

(* ---- parsing and linting -------------------------------------------- *)

let warn_diags on_warning diags =
  List.iter
    (fun d -> on_warning (Errors.diagnostic_to_string d))
    (Lint.warnings diags)

let parse_bench_string ?name ?path ?(lint = true) ?(on_warning = ignore) text =
  match Bf.statements_of_string text with
  | Error e -> Error (Errors.of_parse_error ?path e)
  | Ok statements ->
      let* () =
        if not lint then Ok ()
        else begin
          let diags = Lint.check_source statements in
          if Lint.has_errors diags then Error (Errors.lint ?path diags)
          else begin
            warn_diags on_warning diags;
            Ok ()
          end
        end
      in
      let* net =
        match Bf.of_string_result ?name text with
        | Ok net -> Ok net
        | Error e -> Error (Errors.of_parse_error ?path e)
      in
      if lint then begin
        let diags = Lint.check_netlist net in
        if Lint.has_errors diags then Error (Errors.lint ?path diags)
        else begin
          warn_diags on_warning diags;
          Ok net
        end
      end
      else Ok net

(* Sys_error messages already lead with the path; strip it so the
   Io_error (which prints the path itself) does not say it twice. *)
let strip_path_prefix path msg =
  let prefix = path ^ ": " in
  if String.length msg > String.length prefix
     && String.sub msg 0 (String.length prefix) = prefix
  then String.sub msg (String.length prefix) (String.length msg - String.length prefix)
  else msg

let slurp path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Errors.io ~path (strip_path_prefix path msg))
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | text -> Ok text
      | exception Sys_error msg -> Error (Errors.io ~path msg)
      | exception End_of_file -> Error (Errors.io ~path "truncated read"))

let parse_bench_file ?lint ?on_warning path =
  let* text = slurp path in
  parse_bench_string
    ~name:(Filename.remove_extension (Filename.basename path))
    ~path ?lint ?on_warning text

let lint_bench_file path =
  let* text = slurp path in
  Lint.check_bench_text ~path text

(* ---- moment validation ---------------------------------------------- *)

let validate_moments ~mus ~sigmas =
  let n = Array.length mus in
  if n = 0 then Error (Errors.domain ~param:"mu" "no stages given")
  else if Array.length sigmas <> n then
    Error
      (Errors.domain ~param:"sigma"
         (Printf.sprintf "%d sigmas for %d means" (Array.length sigmas) n))
  else
    let* _ = Guard.finite_array ~where:"stage means" mus in
    let* _ = Guard.finite_array ~where:"stage sigmas" sigmas in
    if Array.exists (fun s -> s < 0.0) sigmas then
      Error (Errors.domain ~param:"sigma" "negative sigma")
    else Ok n

(* ---- pipeline / Clark / yield entry points -------------------------- *)

let pipeline_of_moments ?(on_warning = ignore) ~mus ~sigmas ~rho () =
  let* n = validate_moments ~mus ~sigmas in
  let given_rho = rho in
  let* rho, clamped = Guard.clamp_rho ~where:"pipeline rho" rho in
  if clamped then
    on_warning
      (Printf.sprintf "rho clamped from %.17g to %g" given_rho rho);
  let* corr =
    protect ~where:"rho" (fun () -> Spv_stats.Correlation.uniform ~n ~rho)
  in
  let stages =
    Array.init n (fun i ->
        Spv_core.Stage.of_moments ~mu:mus.(i) ~sigma:sigmas.(i) ())
  in
  protect ~where:"pipeline" (fun () -> Spv_core.Pipeline.make stages ~corr)

let pipeline_of_matrix ?(on_warning = ignore) ~mus ~sigmas ~corr () =
  let* n = validate_moments ~mus ~sigmas in
  if Spv_stats.Matrix.rows corr <> n || Spv_stats.Matrix.cols corr <> n then
    Error
      (Errors.domain ~param:"corr"
         (Printf.sprintf "correlation is %dx%d for %d stages"
            (Spv_stats.Matrix.rows corr)
            (Spv_stats.Matrix.cols corr)
            n))
  else
    let* corr, report = Guard.repair_correlation corr in
    if report.Guard.repaired then
      on_warning (Format.asprintf "%a" Guard.pp_psd_report report);
    let stages =
      Array.init n (fun i ->
          Spv_core.Stage.of_moments ~mu:mus.(i) ~sigma:sigmas.(i) ())
    in
    protect ~where:"pipeline" (fun () -> Spv_core.Pipeline.make stages ~corr)

let clark_max ?on_warning ?order ~mus ~sigmas ~corr () =
  let* pipeline = pipeline_of_matrix ?on_warning ~mus ~sigmas ~corr () in
  let* g =
    protect ~where:"Clark iterated max" (fun () ->
        Spv_core.Pipeline.delay_distribution ?order pipeline)
  in
  Guard.finite_gaussian ~where:"Clark iterated max" g

let yield_estimate pipeline ~t_target =
  if not (Float.is_finite t_target) then
    Error (Errors.domain ~param:"t_target" "must be finite")
  else
    let* y =
      protect ~where:"yield estimate" (fun () ->
          Spv_core.Yield.estimate pipeline ~t_target)
    in
    let* y = Guard.finite ~where:"yield estimate" y in
    if y < -1e-9 || y > 1.0 +. 1e-9 then
      Error
        (Errors.numeric ~where:"yield estimate"
           (Printf.sprintf "probability %g outside [0, 1]" y))
    else Ok (Float.max 0.0 (Float.min 1.0 y))

(* ---- engine entry points -------------------------------------------- *)

module Engine = Spv_engine.Engine

let engine_ctx_of_pipeline pipeline =
  protect ~where:"engine context" (fun () -> Engine.Ctx.of_pipeline pipeline)

let engine_ctx_of_circuits ?mode ?macro_table ?block_gates ?output_load
    ?pitch ?ff tech nets =
  protect ~where:"engine context" (fun () ->
      Engine.Ctx.of_circuits ?mode ?macro_table ?block_gates ?output_load
        ?pitch ?ff tech nets)

let checked_probability ~where (e : Engine.estimate) =
  let* _ = Guard.finite ~where e.Engine.value in
  if e.Engine.value < -1e-9 || e.Engine.value > 1.0 +. 1e-9 then
    Error
      (Errors.numeric ~where
         (Printf.sprintf "probability %g outside [0, 1]" e.Engine.value))
  else
    Ok
      { e with Engine.value = Float.max 0.0 (Float.min 1.0 e.Engine.value) }

let engine_yield ?method_ ?proposal ?jobs ?shards ?seed ?n ?batch
    ?min_samples ?rel_se_target ?max_samples ctx ~t_target =
  if not (Float.is_finite t_target) then
    Error (Errors.domain ~param:"t_target" "must be finite")
  else
    let* e =
      protect ~where:"engine yield" (fun () ->
          Engine.yield ?method_ ?proposal ?jobs ?shards ?seed ?n ?batch
            ?min_samples ?rel_se_target ?max_samples ctx ~t_target)
    in
    checked_probability ~where:"engine yield" e

let engine_delay_mean ?method_ ?jobs ?shards ?seed ?n ?batch ?min_samples
    ?rel_se_target ?max_samples ctx =
  let* e =
    protect ~where:"engine delay mean" (fun () ->
        Engine.delay_mean ?method_ ?jobs ?shards ?seed ?n ?batch ?min_samples
          ?rel_se_target ?max_samples ctx)
  in
  let* _ = Guard.finite ~where:"engine delay mean" e.Engine.value in
  Ok e

let engine_gate_level_delays ?exact ?jobs ?shards ?seed ctx ~n =
  let* samples =
    protect ~where:"engine gate-level MC" (fun () ->
        Engine.gate_level_delays ?exact ?jobs ?shards ?seed ctx ~n)
  in
  let* _ = Guard.finite_array ~where:"engine gate-level MC" samples in
  Ok samples

(* ---- sweep entry points ---------------------------------------------- *)

module Grid = Spv_workload.Grid
module Sweep = Spv_workload.Sweep

let lookup_circuit ?(on_warning = ignore) ?(param = "--circuit") name =
  match List.assoc_opt name Grid.builtin_circuits with
  | Some f -> protect ~where:("circuit " ^ name) f
  | None -> (
      (* Anything else is a .bench path.  No Sys.file_exists pre-check:
         parse_bench_file owns the open, so a file deleted between
         check and read is an Io_error, not an uncaught Sys_error. *)
      match parse_bench_file ~on_warning name with
      | Ok net -> Ok net
      | Error (Errors.Io_error _)
        when (not (String.contains name '/'))
             && not (String.contains name '.') ->
          (* A bare word that is not a readable file was almost
             certainly meant as a builtin circuit name. *)
          Error
            (Errors.domain ~param
               (Printf.sprintf
                  "unknown circuit %S (known: %s, or a .bench file path)" name
                  (String.concat ", " (List.map fst Grid.builtin_circuits))))
      | Error e -> Error e)

let sweep_grid_of_string ?on_warning ?path text =
  let lookup name =
    match lookup_circuit ?on_warning ~param:"circuit" name with
    | Ok net -> Ok net
    | Error e -> Error (Errors.to_string e)
  in
  match Grid.of_string ~lookup text with
  | Ok grid -> Ok grid
  | Error e -> Error (Errors.parse ?path ?line:e.Grid.line e.Grid.message)

let sweep_grid_of_file ?on_warning path =
  let* text = slurp path in
  sweep_grid_of_string ?on_warning ~path text

let sweep_run ?mode ?proposal ?jobs ?seed ?tech grid =
  let where = "sweep" in
  let* r =
    protect ~where (fun () ->
        Sweep.run ?mode ?proposal ?jobs ?seed ?tech grid)
  in
  let* () =
    Array.fold_left
      (fun acc (row : Sweep.row) ->
        let* () = acc in
        let v = row.Sweep.estimate.Engine.value and l = row.Sweep.loss in
        if not (Float.is_finite v && Float.is_finite l) then
          Error
            (Errors.numeric ~where
               (Printf.sprintf "scenario %d: non-finite estimate"
                  row.Sweep.scenario.Sweep.index))
        else if v < 0.0 || v > 1.0 || l < 0.0 || l > 1.0 then
          Error
            (Errors.numeric ~where
               (Printf.sprintf
                  "scenario %d: probability outside [0, 1] (yield %g, loss %g)"
                  row.Sweep.scenario.Sweep.index v l))
        else Ok ())
      (Ok ()) r.Sweep.rows
  in
  Ok r

(* ---- static-analysis entry points ----------------------------------- *)

module Analyze = Spv_analysis.Analyze

let analyze ?k ?t_target ?hier ctx =
  let* r =
    protect ~where:"analyze" (fun () -> Analyze.run ?k ?t_target ?hier ctx)
  in
  if
    not
      (Spv_analysis.Interval.is_finite r.Analyze.bounds.Spv_analysis.Bounds.delay)
  then
    Error
      (Errors.numeric ~where:"analyze"
         "degenerate interval bounds: the variation box crosses the device \
          cutoff (overdrive <= 0); lower k or the variation sigmas")
  else Ok r

let analysis_errors (r : Analyze.result) =
  let errs =
    List.filter
      (fun f -> f.Spv_analysis.Report.severity = Spv_analysis.Report.Error)
      r.Analyze.report.Spv_analysis.Report.findings
  in
  match errs with
  | [] -> None
  | errs ->
      Some
        (Errors.lint
           (List.map
              (fun f ->
                Errors.diagnostic ~code:"analysis"
                  ~signal:f.Spv_analysis.Report.pass
                  f.Spv_analysis.Report.message)
              errs))

(* ---- certificate entry points --------------------------------------- *)

module Certify = Spv_analysis.Certify

let certify_points ?nonneg_correlation ~t_target ~yield points =
  protect ~where:"certify" (fun () ->
      Certify.of_points ?nonneg_correlation ~t_target ~yield points)

let certify_solution_file ?nonneg_correlation path =
  let* text = slurp path in
  match Certify.parse_solution text with
  | Error msg -> Error (Errors.parse ~path msg)
  | Ok sol ->
      certify_points ?nonneg_correlation ~t_target:sol.Certify.sol_t_target
        ~yield:sol.Certify.sol_yield sol.Certify.points

let certify_ctx ?t_target ~yield ctx =
  protect ~where:"certify" (fun () -> Certify.of_ctx ?t_target ~yield ctx)

let certificate_error (c : Certify.t) =
  match c.Certify.status with
  | Certify.Refuted ->
      let detail =
        match c.Certify.counterexample with
        | Some s ->
            Printf.sprintf
              "stage %d (mu=%.6g, sigma=%.6g) has yield %.6g < target %.6g"
              s.Certify.stage s.Certify.point.Spv_core.Design_space.mu
              s.Certify.point.Spv_core.Design_space.sigma s.Certify.stage_yield
              c.Certify.yield
        | None -> "design space membership disproved"
      in
      Some (Errors.refuted ~what:"sizing certificate" detail)
  | Certify.Proved | Certify.Inconclusive -> None

(* ---- circuit-level entry points ------------------------------------- *)

let ssta_stage ?output_load ?ff tech net =
  let* g =
    protect ~where:"SSTA" (fun () ->
        Spv_circuit.Ssta.stage_gaussian ?output_load ?ff tech net)
  in
  Guard.finite_gaussian ~where:"SSTA" g

let size_stage ?options ?ff tech net ~t_target ~z =
  if not (Float.is_finite t_target && t_target > 0.0) then
    Error (Errors.domain ~param:"t_target" "must be finite and positive")
  else if not (Float.is_finite z) then
    Error (Errors.domain ~param:"z" "must be finite")
  else
    let* r =
      protect ~where:"sizing" (fun () ->
          Spv_sizing.Lagrangian.size_stage ?options ?ff tech net ~t_target ~z)
    in
    let* _ =
      Guard.finite ~where:"sizing (stat delay)"
        r.Spv_sizing.Lagrangian.stat_delay
    in
    let* _ = Guard.finite ~where:"sizing (area)" r.Spv_sizing.Lagrangian.area in
    Ok r

(* ---- statistics entry points ---------------------------------------- *)

let ks_against_gaussian samples g =
  match Spv_stats.Kstest.against_gaussian_checked samples g with
  | Ok r -> Ok r
  | Error e -> Error (Errors.of_sample_error ~where:"KS test" e)

let histogram ?bins samples =
  match Spv_stats.Histogram.of_samples_checked ?bins samples with
  | Ok h -> Ok h
  | Error e -> Error (Errors.of_sample_error ~where:"histogram" e)
