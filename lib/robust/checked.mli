(** Checked entry points: the library's main operations run inside an
    exception handler that converts [Invalid_argument]/[Failure] (and
    I/O failures) into typed {!Errors.t} values, with numerical
    post-conditions (finiteness, probability ranges) verified on the
    way out.

    The CLI builds exclusively on these, so every failure path maps to
    a one-line stderr message and a documented exit code. *)

val protect : where:string -> (unit -> 'a) -> ('a, Errors.t) result
(** Run [f ()], converting escaped exceptions into typed errors:
    [Invalid_argument] → [Domain_error], [Failure] → [Numeric_error]
    (or [Certificate_refuted] when {!is_refutation} holds),
    [Sys_error] → [Io_error], stack/memory exhaustion →
    [Numeric_error], anything else unexpected → [Internal_error]. *)

val is_refutation : string -> bool
(** True when a [Failure] message carries the sizing-certificate
    refutation marker (["certificate refuted"], raised by
    [Spv_sizing.Certify_hook.postcondition]); {!protect} maps such
    failures onto {!Errors.Certificate_refuted} (exit code 8) instead
    of [Numeric_error]. *)

(** {1 Parsing and linting} *)

val parse_bench_string :
  ?name:string -> ?path:string -> ?lint:bool ->
  ?on_warning:(string -> unit) -> string ->
  (Spv_circuit.Netlist.t, Errors.t) result
(** Tokenise, lint (unless [lint:false]) and build.  Structural
    defects of [Err] severity become {!Errors.Lint_error}; [Warn]
    diagnostics are passed to [on_warning] (default: dropped) and do
    not fail the parse. *)

val parse_bench_file :
  ?lint:bool -> ?on_warning:(string -> unit) -> string ->
  (Spv_circuit.Netlist.t, Errors.t) result
(** Like {!parse_bench_string} for a file path.  An unreadable file —
    including one deleted between an existence check and the read — is
    {!Errors.Io_error}, never a raised [Sys_error]. *)

val lint_bench_file :
  string -> (Errors.diagnostic list, Errors.t) result
(** All diagnostics (errors and warnings) for a `.bench` file, without
    failing on [Err]-severity findings; [Error] only for I/O or
    tokenisation problems. *)

(** {1 Pipeline model} *)

val pipeline_of_moments :
  ?on_warning:(string -> unit) -> mus:float array -> sigmas:float array ->
  rho:float -> unit -> (Spv_core.Pipeline.t, Errors.t) result
(** Stage moments + uniform correlation.  Validates lengths,
    finiteness, sigma sign and the admissible rho range
    [[-1/(n-1), 1]]; rho within 1e-6 outside [-1, 1] is clamped with a
    warning. *)

val pipeline_of_matrix :
  ?on_warning:(string -> unit) -> mus:float array -> sigmas:float array ->
  corr:Spv_stats.Matrix.t -> unit -> (Spv_core.Pipeline.t, Errors.t) result
(** Stage moments + explicit correlation matrix; a non-PSD matrix is
    repaired via {!Guard.repair_correlation} with a warning. *)

val clark_max :
  ?on_warning:(string -> unit) -> ?order:Spv_core.Clark.order ->
  mus:float array -> sigmas:float array -> corr:Spv_stats.Matrix.t ->
  unit -> (Spv_stats.Gaussian.t, Errors.t) result
(** Clark iterated max of the stage delays, with the finiteness
    post-condition checked on the result. *)

val yield_estimate :
  Spv_core.Pipeline.t -> t_target:float -> (float, Errors.t) result
(** {!Spv_core.Yield.estimate} with [t_target] finiteness checked and
    the result verified finite and clamped into [0, 1]. *)

(** {1 Engine}

    Typed-error wrappers over {!Spv_engine.Engine}: the unified
    estimator entry points with parameter validation mapped to
    [Domain_error] and result post-conditions (finiteness,
    probability range with clamping) to [Numeric_error]. *)

val engine_ctx_of_pipeline :
  Spv_core.Pipeline.t -> (Spv_engine.Engine.Ctx.t, Errors.t) result

val engine_ctx_of_circuits :
  ?mode:Spv_engine.Engine.mode ->
  ?macro_table:Spv_circuit.Macro.Table.t -> ?block_gates:int ->
  ?output_load:float -> ?pitch:float -> ?ff:Spv_process.Flipflop.t ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t array ->
  (Spv_engine.Engine.Ctx.t, Errors.t) result

val engine_yield :
  ?method_:Spv_engine.Engine.method_ ->
  ?proposal:Spv_engine.Engine.proposal -> ?jobs:int -> ?shards:int ->
  ?seed:int -> ?n:int -> ?batch:int -> ?min_samples:int ->
  ?rel_se_target:float -> ?max_samples:int -> Spv_engine.Engine.Ctx.t ->
  t_target:float -> (Spv_engine.Engine.estimate, Errors.t) result
(** {!Spv_engine.Engine.yield} with the estimate verified finite and
    clamped into [0, 1].  [proposal] selects the importance-sampling
    proposal family ([Importance] method only). *)

val engine_delay_mean :
  ?method_:Spv_engine.Engine.method_ -> ?jobs:int -> ?shards:int ->
  ?seed:int -> ?n:int -> ?batch:int -> ?min_samples:int ->
  ?rel_se_target:float -> ?max_samples:int -> Spv_engine.Engine.Ctx.t ->
  (Spv_engine.Engine.estimate, Errors.t) result

val engine_gate_level_delays :
  ?exact:bool -> ?jobs:int -> ?shards:int -> ?seed:int ->
  Spv_engine.Engine.Ctx.t -> n:int -> (float array, Errors.t) result

(** {1 Scenario sweeps} *)

val lookup_circuit :
  ?on_warning:(string -> unit) -> ?param:string -> string ->
  (Spv_circuit.Netlist.t, Errors.t) result
(** Resolve a circuit reference: a builtin name from
    {!Spv_workload.Grid.builtin_circuits}, else a .bench file path
    (parsed and linted).  A bare word that is neither maps to
    [Domain_error] listing the known names ([param], default
    ["--circuit"], names the offending option); unreadable paths are
    [Io_error]. *)

val sweep_grid_of_string :
  ?on_warning:(string -> unit) -> ?path:string -> string ->
  (Spv_workload.Grid.t, Errors.t) result
(** Parse and validate a scenario-grid file; syntax problems are
    [Parse_error] carrying the 1-based line where one is known. *)

val sweep_grid_of_file :
  ?on_warning:(string -> unit) -> string ->
  (Spv_workload.Grid.t, Errors.t) result

val sweep_run :
  ?mode:Spv_engine.Engine.mode -> ?proposal:Spv_engine.Engine.proposal ->
  ?jobs:int -> ?seed:int -> ?tech:Spv_process.Tech.t ->
  Spv_workload.Grid.t -> (Spv_workload.Sweep.result, Errors.t) result
(** {!Spv_workload.Sweep.run} behind the typed-error boundary, with
    every row's yield and loss verified finite and inside [0, 1]. *)

(** {1 Static analysis} *)

val analyze :
  ?k:float -> ?t_target:float -> ?hier:bool -> Spv_engine.Engine.Ctx.t ->
  (Spv_analysis.Analyze.result, Errors.t) result
(** {!Spv_analysis.Analyze.run} behind the typed-error boundary: an
    invalid [k] maps to [Domain_error]; degenerate (non-finite)
    pipeline delay bounds — the variation box crossing the device
    cutoff — map to [Numeric_error].  Error-severity findings do {e
    not} fail this call (the caller still wants the report printed);
    turn them into an exit-code-bearing error with
    {!analysis_errors}. *)

val analysis_errors : Spv_analysis.Analyze.result -> Errors.t option
(** [Some (Lint_error ...)] carrying one diagnostic per error-severity
    finding (code ["analysis"]), [None] when the report has none.  The
    CLI prints the report first, then exits with the Lint code through
    this. *)

(** {1 Sizing certificates} *)

val certify_points :
  ?nonneg_correlation:bool -> t_target:float -> yield:float ->
  Spv_core.Design_space.point array ->
  (Spv_analysis.Certify.t, Errors.t) result
(** {!Spv_analysis.Certify.of_points} behind the typed-error boundary
    (bad moments / targets map to [Domain_error]). *)

val certify_solution_file :
  ?nonneg_correlation:bool -> string ->
  (Spv_analysis.Certify.t, Errors.t) result
(** Read and certify a solution file ([t_target] / [yield] / [stage i
    mu sigma] lines).  Unreadable files are [Io_error], malformed
    contents [Parse_error]. *)

val certify_ctx :
  ?t_target:float -> yield:float -> Spv_engine.Engine.Ctx.t ->
  (Spv_analysis.Certify.t, Errors.t) result

val certificate_error : Spv_analysis.Certify.t -> Errors.t option
(** [Some (Certificate_refuted ...)] carrying the counterexample when
    the certificate is refuted (the CLI exits 8 through this), [None]
    on proved or inconclusive certificates. *)

(** {1 Circuit timing and sizing} *)

val ssta_stage :
  ?output_load:float -> ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Spv_circuit.Netlist.t -> (Spv_stats.Gaussian.t, Errors.t) result

val size_stage :
  ?options:Spv_sizing.Lagrangian.options -> ?ff:Spv_process.Flipflop.t ->
  Spv_process.Tech.t -> Spv_circuit.Netlist.t -> t_target:float -> z:float ->
  (Spv_sizing.Lagrangian.report, Errors.t) result

(** {1 Statistics} *)

val ks_against_gaussian :
  float array -> Spv_stats.Gaussian.t ->
  (Spv_stats.Kstest.result, Errors.t) result

val histogram :
  ?bins:int -> float array -> (Spv_stats.Histogram.t, Errors.t) result
