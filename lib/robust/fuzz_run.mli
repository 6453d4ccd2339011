(** Fuzzing campaigns: drive {!Oracle} over a stream of seed-derived
    cases, shrink and file what it finds, and summarise the run.

    Per-trial generator seeds are drawn from one splitmix64 stream
    seeded by the campaign's master seed, and each printed trial seed
    is a complete repro on its own ({!run_one} — the CLI's
    [--replay]).  Everything the campaign emits is deterministic in
    [(config)] — wall-clock time is measured through the injectable
    [now] so the default JSONL/text output is byte-identical across
    runs. *)

type config = {
  trials : int;
  seed : int;  (** master seed the per-trial seeds are split from *)
  max_gates : int;
  check_seed : int;  (** estimator seed (default 42) *)
  tolerances : Oracle.tolerances;
  invariants : Oracle.invariant list;
  shrink : bool;
  max_shrink_attempts : int;
  corpus_dir : string option;
      (** when set, violations are filed there as `.repro` cases *)
}

val default_config : config
(** 50 trials, seed 42, 80 gates, check seed 42, default tolerances,
    all invariants, shrinking on (300 attempts), no corpus dir. *)

type trial = {
  index : int;
  trial_seed : int;
  n_stages : int;
  n_gates : int;
  n_mutations : int;
  process : string;
  checks_run : int;
  violations : Oracle.violation list;
  shrink_steps : int;
  filed : string list;  (** corpus paths written for this trial *)
}

type summary = {
  schema_version : int;
  trials : int;
  seed : int;
  max_gates : int;
  checks_run : int;
  checks_passed : int;
  violations : int;
  violating_trials : int;
  shrink_steps : int;
  filed : int;
  findings : Oracle.finding list;
  wall_seconds : float;
  macro_hits : int;
      (** Hier-invariant macro-table hits over the whole campaign (the
          table is shared across trials) *)
  macro_misses : int;  (** blocks actually characterised *)
}

val schema_version : int

val run_one :
  config -> macro_table:Spv_circuit.Macro.Table.t -> index:int ->
  gen_seed:int -> trial * Oracle.finding list
(** One fully-determined trial: materialise, check, shrink each
    distinct violated invariant, file into the corpus when configured.
    Never raises on a checkable case (escapes become [Escape]
    violations). *)

val run :
  ?now:(unit -> float) -> ?on_trial:(trial -> unit) -> config -> summary
(** The whole campaign.  [on_trial] streams per-trial results (the
    CLI's progressive output); [now] (default [Sys.time]) only feeds
    [wall_seconds]. *)

(** {1 Rendering} *)

val trial_to_json : trial -> string
(** One JSONL object per trial, [schema_version]'d like
    {!Spv_workload.Sweep}. *)

val summary_to_json : summary -> string
(** The summary object.  [wall_seconds], [macro_hits] and
    [macro_misses] are left out so the output stays byte-identical
    across runs (and keeps the v1 schema). *)

val trial_to_text : trial -> string
val summary_to_text : summary -> string

val first_error : summary -> Errors.t option
(** The [Oracle_violation] to report (exit code 9) when the campaign
    found at least one counterexample. *)
