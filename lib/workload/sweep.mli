(** Batched scenario-sweep runner with shared-context caching.

    Expands a {!Grid.t} into scenarios (sources x processes x methods
    x T_targets, in that nested order) and evaluates them through the
    unified engine with one {!Spv_engine.Engine.Ctx.t} per
    (source, process) pair — the Cholesky factorisation, Clark delay
    distribution and (for circuits) the SSTA stage analyses are built
    once and reused across every method and target.

    Determinism: every scenario's estimator runs with the caller's
    [seed] through the engine's shard machinery, so each row is
    bit-identical to the corresponding single-scenario engine call at
    the same [(seed, shards, n)] — and [jobs] never changes results,
    only wall-clock time.  For the [Mc] and [Adaptive_mc] methods all
    targets of a (source, process) pair share one sampling pass
    ({!Spv_engine.Engine.yield_targets}), which is itself bit-identical
    to per-target runs. *)

val schema_version : int
(** Version stamped into every JSONL row (currently 3; version 2 added
    [hier_bound], [macro_hits] and [macro_misses]; version 3 added
    [ess] and [proposal]). *)

type scenario = {
  index : int;  (** position in expansion order, 0-based *)
  source : string;
  process : string;
  method_ : Spv_engine.Engine.method_;
  t_target : float;
}

type row = {
  scenario : scenario;
  estimate : Spv_engine.Engine.estimate;  (** the yield estimate *)
  loss : float;
      (** yield loss with stable deep tails: closed forms route
          through [Engine.yield_loss]; [Mc]/[Adaptive_mc] use the
          integer-exact complement of their counts; [Importance]
          reports its failure probability directly *)
  macro_hits : int;
      (** macro-table block hits incurred building this row's context
          (0 in flat mode).  All rows sharing a (source, process)
          context report the same counters. *)
  macro_misses : int;
      (** blocks actually (re-)characterised for this row's context —
          over a process-override sweep this equals the number of
          blocks the override touched, everything else being hits *)
}

type result = {
  rows : row array;  (** in scenario order *)
  n_contexts : int;  (** distinct (source, process) contexts built *)
}

exception Stopped
(** Raised out of {!run} and {!group_rows} when [should_stop] returns
    [true] — the request's deadline passed.  No partial result
    escapes: the caller gets the exception or the whole result. *)

val importance_row :
  Spv_engine.Engine.estimate -> Spv_engine.Engine.estimate * float
(** Turn a raw importance-sampling loss estimate into a (yield
    estimate, loss) row pair.  The loss is clamped to [[0, 1]] {e
    first} and the yield derived as [1 - loss] from the clamped value,
    so the pair is always consistent — a self-normalised-weight
    excursion can push the raw estimate marginally outside [[0, 1]],
    and clamping only the yield would ship [loss > 1] next to
    [yield = 0] in the same row. *)

val ctx_for :
  ?mode:Spv_engine.Engine.mode ->
  ?macro_table:Spv_circuit.Macro.Table.t ->
  tech:Spv_process.Tech.t -> Grid.source -> Grid.process ->
  Spv_engine.Engine.Ctx.t
(** The engine context a (source, process) pair resolves to — what
    {!run} builds once per pair.  Exposed so benchmarks and tests can
    reproduce the uncached per-scenario baseline.  [mode] (default
    [Flat]) and [macro_table] are forwarded to
    {!Spv_engine.Engine.Ctx.of_circuits}; moment sources ignore both. *)

val build :
  ?mode:Spv_engine.Engine.mode ->
  ?macro_table:Spv_circuit.Macro.Table.t ->
  tech:Spv_process.Tech.t -> Grid.source -> Grid.process ->
  Spv_engine.Engine.Ctx.t * (int * int)
(** {!ctx_for} plus the [(macro_hits, macro_misses)] deltas the build
    caused on [macro_table] (default: a fresh table; flat builds never
    touch it, so they report [(0, 0)]). *)

val group_rows :
  ?should_stop:(unit -> bool) -> ?jobs:int -> seed:int -> Grid.t ->
  first:int -> Spv_engine.Engine.Ctx.t -> Grid.source * Grid.process ->
  int * int -> row list
(** Every (method, target) row of one {!Grid.groups} pair, evaluated
    on [ctx], stamped with the [(macro_hits, macro_misses)] pair and
    numbered from [first] (methods outer, targets inner).  Group [g]
    starts at [g x |methods| x |targets|]; the groups' rows in order
    are {!run}'s rows.  [should_stop] is polled before each
    per-target estimator call of the closed forms and importance, and
    once before each shared mc or adaptive pass. *)

val run :
  ?mode:Spv_engine.Engine.mode -> ?jobs:int -> ?seed:int ->
  ?tech:Spv_process.Tech.t ->
  ?ctx_provider:
    (Grid.source -> Grid.process -> Spv_engine.Engine.Ctx.t * (int * int)) ->
  ?should_stop:(unit -> bool) ->
  Grid.t -> result
(** Evaluate the grid (defaults: engine seed 42, {!Spv_process.Tech.bptm70}):
    for each {!Grid.groups} pair in order, resolve its context and
    append its {!group_rows}.
    [Importance] scenarios sample with the importance proposal (the
    registered failure-cone provider when one is installed, the legacy
    mixture otherwise), resolved once per scenario before sampling so
    [jobs] byte-identity still holds.
    Under [~mode:Hierarchical] all circuit contexts share one macro
    table, so across the process axis each block is characterised once
    per distinct (block, process) pair — a process override
    re-characterises only the blocks it affects (asserted by the
    per-row counters).  Contexts are built serially regardless of
    [jobs], keeping the rows (counters included) byte-identical across
    [jobs].
    [ctx_provider], when given, replaces {!build} on the shared table:
    it is called once per (source, process) pair in expansion order
    and returns the context plus the [(macro_hits, macro_misses)]
    deltas to stamp on that pair's rows (benchmarks use it to time
    context builds).
    [should_stop] (default [fun () -> false]) is polled before each
    context build, before each per-target call of the closed forms and
    importance, and once before each shared mc or adaptive pass; when it
    returns [true], {!Stopped} is raised and no partial result
    escapes.
    Raises [Invalid_argument] when {!Grid.validate} rejects the
    grid. *)

val json_escape : string -> string
(** Body of a JSON string literal (no surrounding quotes): escapes the
    double quote, backslash, newline, carriage return and tab, and every
    other control character as a [\\u00XX] escape.  Shared by the
    sweep, serve and fuzz JSON writers. *)

val json_float : float -> string
(** JSON encoding of one float: finite values print with [%.17g] so
    they round-trip bit-exactly; NaN and infinities print as [null]
    (JSON has no non-finite numbers — a bare [nan] token would corrupt
    the line for every downstream parser).  Every float in every JSONL
    writer of this repository routes through this helper. *)

val row_to_json : row -> string
(** One JSON object (single line, no trailing newline): keys
    [schema_version, scenario, source, process, method, t_target,
    yield, std_error, n_samples, stop, loss, hier_bound, macro_hits,
    macro_misses, ess, proposal].  Every float field is number-or-null
    via {!json_float}; [hier_bound] is [null] for
    flat-mode rows; [ess] and [proposal] are [null] for
    non-importance rows, otherwise the effective sample size and the
    proposal actually used (["legacy"], ["cone"] or
    ["plain-fallback"]). *)

val to_jsonl : result -> string
(** All rows, newline-terminated — the [spv sweep] output format. *)

val stage_count_sweep :
  stage:Spv_stats.Gaussian.t -> rho:float -> stage_counts:int array ->
  float array
(** sigma/mu of the Clark max of N identical stages under uniform
    correlation [rho], per stage count — bit-identical to
    {!Spv_core.Variability.pipeline_sigma_mu_vs_stages} but computed
    from one {!Spv_core.Clark.prefix_maxes} recursion over the largest
    count instead of one Clark fold per count.

    The output is positional: [result.(i)] answers [stage_counts.(i)].
    Counts need not be sorted or distinct — each entry is an
    independent lookup into the shared prefix-max table, so duplicates
    yield (bit-)equal values and order is preserved.  Raises
    [Invalid_argument] only for an empty array or a count [<= 0]. *)
