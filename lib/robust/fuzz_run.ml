module Rng = Spv_stats.Rng
module Netlist = Spv_circuit.Netlist
module Fuzz = Spv_circuit.Fuzz
module Macro = Spv_circuit.Macro

let schema_version = 1

type config = {
  trials : int;
  seed : int;
  max_gates : int;
  check_seed : int;
  tolerances : Oracle.tolerances;
  invariants : Oracle.invariant list;
  shrink : bool;
  max_shrink_attempts : int;
  corpus_dir : string option;
}

let default_config =
  {
    trials = 50;
    seed = 42;
    max_gates = 80;
    check_seed = 42;
    tolerances = Oracle.default_tolerances;
    invariants = Oracle.all_invariants;
    shrink = true;
    max_shrink_attempts = 300;
    corpus_dir = None;
  }

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
  filed : string list;
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
  macro_misses : int;
}

let validate (cfg : config) =
  if cfg.trials < 1 then invalid_arg "Fuzz_run: trials < 1";
  if cfg.max_gates < 1 then invalid_arg "Fuzz_run: max_gates < 1";
  if cfg.max_shrink_attempts < 0 then
    invalid_arg "Fuzz_run: max_shrink_attempts < 0";
  if cfg.invariants = [] then invalid_arg "Fuzz_run: empty invariant list"

(* Distinct invariants in first-seen order. *)
let violated_invariants violations =
  List.rev
    (List.fold_left
       (fun acc (v : Oracle.violation) ->
         if List.mem v.Oracle.invariant acc then acc
         else v.Oracle.invariant :: acc)
       [] violations)

let run_one (cfg : config) ~macro_table ~index ~gen_seed =
  let case = { Oracle.gen_seed; max_gates = cfg.max_gates } in
  let outcome =
    Oracle.run_case ~tolerances:cfg.tolerances ~invariants:cfg.invariants
      ~macro_table ~check_seed:cfg.check_seed case
  in
  let materialised =
    match
      Checked.protect ~where:"fuzz materialise" (fun () ->
          Oracle.materialise case)
    with
    | Ok m -> Some m
    | Error _ -> None
  in
  let n_stages, n_gates, n_mutations, process =
    match materialised with
    | Some m ->
        ( Array.length m.Oracle.circuits,
          Array.fold_left
            (fun acc net -> acc + Netlist.n_gates net)
            0 m.Oracle.circuits,
          m.Oracle.n_mutations,
          Fuzz.process_to_string m.Oracle.process )
    | None -> (0, 0, 0, "?")
  in
  let findings, shrink_steps =
    match (outcome.Oracle.violations, materialised) with
    | [], _ | _, None -> ([], 0)
    | violations, Some m ->
        List.fold_left
          (fun (fs, steps) invariant ->
            let violation =
              List.find
                (fun (v : Oracle.violation) -> v.Oracle.invariant = invariant)
                violations
            in
            let circuits, process, n =
              if cfg.shrink then
                Oracle.shrink ~tolerances:cfg.tolerances
                  ~max_attempts:cfg.max_shrink_attempts ~invariant
                  ~check_seed:cfg.check_seed m.Oracle.circuits
                  m.Oracle.process
              else (m.Oracle.circuits, m.Oracle.process, 0)
            in
            let finding =
              {
                Oracle.found = case;
                check_seed = cfg.check_seed;
                violation;
                circuits;
                process;
                shrink_steps = n;
              }
            in
            (finding :: fs, steps + n))
          ([], 0)
          (violated_invariants violations)
  in
  let findings = List.rev findings in
  let filed =
    match cfg.corpus_dir with
    | None -> []
    | Some dir -> List.map (fun f -> Oracle.file_finding ~dir f) findings
  in
  ( {
      index;
      trial_seed = gen_seed;
      n_stages;
      n_gates;
      n_mutations;
      process;
      checks_run = outcome.Oracle.checks_run;
      violations = outcome.Oracle.violations;
      shrink_steps;
      filed;
    },
    findings )

let run ?(now = Sys.time) ?(on_trial = fun (_ : trial) -> ()) (cfg : config) =
  validate cfg;
  let t0 = now () in
  (* One macro table for the whole campaign: the Hier invariant's
     characterisations are shared across trials (a pure cache — every
     outcome is unchanged), and the final hit/miss split goes into the
     timing report. *)
  let macro_table = Macro.Table.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let checks_run = ref 0 in
  let violations = ref 0 in
  let violating_trials = ref 0 in
  let shrink_steps = ref 0 in
  let filed = ref 0 in
  let findings = ref [] in
  for index = 0 to cfg.trials - 1 do
    let gen_seed = Int64.to_int (Rng.bits64 rng) land max_int in
    let trial, fs = run_one cfg ~macro_table ~index ~gen_seed in
    on_trial trial;
    checks_run := !checks_run + trial.checks_run;
    violations := !violations + List.length trial.violations;
    if trial.violations <> [] then incr violating_trials;
    shrink_steps := !shrink_steps + trial.shrink_steps;
    filed := !filed + List.length trial.filed;
    findings := List.rev_append fs !findings
  done;
  {
    schema_version;
    trials = cfg.trials;
    seed = cfg.seed;
    max_gates = cfg.max_gates;
    checks_run = !checks_run;
    checks_passed = !checks_run - !violations;
    violations = !violations;
    violating_trials = !violating_trials;
    shrink_steps = !shrink_steps;
    filed = !filed;
    findings = List.rev !findings;
    wall_seconds = now () -. t0;
    macro_hits = Macro.Table.hits macro_table;
    macro_misses = Macro.Table.misses macro_table;
  }

(* ---- rendering ------------------------------------------------------ *)

let violations_json violations =
  String.concat ","
    (List.map
       (fun (v : Oracle.violation) ->
         Printf.sprintf "{\"invariant\":\"%s\",\"detail\":\"%s\"}"
           (Oracle.invariant_name v.Oracle.invariant)
           (Spv_workload.Sweep.json_escape v.Oracle.detail))
       violations)

let trial_to_json t =
  Printf.sprintf
    "{\"schema_version\":%d,\"kind\":\"trial\",\"trial\":%d,\"seed\":%d,\"stages\":%d,\"gates\":%d,\"mutations\":%d,\"process\":\"%s\",\"checks_run\":%d,\"violations\":[%s],\"shrink_steps\":%d,\"filed\":[%s]}"
    schema_version t.index t.trial_seed t.n_stages t.n_gates t.n_mutations
    (Spv_workload.Sweep.json_escape t.process) t.checks_run
    (violations_json t.violations)
    t.shrink_steps
    (String.concat ","
       (List.map
          (fun p -> Printf.sprintf "\"%s\"" (Spv_workload.Sweep.json_escape p))
          t.filed))

let summary_to_json ?(timings = false) s =
  (* The macro counters ride with the timing fields: like wall_seconds
     they describe the run's cost, not its verdict, and keeping them
     out of the default output preserves the v1 schema byte-for-byte
     (the smoke gate double-runs and diffs it). *)
  let timing =
    if timings then
      Printf.sprintf
        ",\"wall_seconds\":%.6f,\"macro_hits\":%d,\"macro_misses\":%d"
        s.wall_seconds s.macro_hits s.macro_misses
    else ""
  in
  Printf.sprintf
    "{\"schema_version\":%d,\"kind\":\"summary\",\"trials\":%d,\"seed\":%d,\"max_gates\":%d,\"checks_run\":%d,\"checks_passed\":%d,\"violations\":%d,\"violating_trials\":%d,\"shrink_steps\":%d,\"filed\":%d%s}"
    s.schema_version s.trials s.seed s.max_gates s.checks_run s.checks_passed
    s.violations s.violating_trials s.shrink_steps s.filed timing

let trial_to_text t =
  let base =
    Printf.sprintf "trial %d seed %d: %d stage(s), %d gate(s), %d mutation(s), process %s, %d check(s)"
      t.index t.trial_seed t.n_stages t.n_gates t.n_mutations t.process
      t.checks_run
  in
  match t.violations with
  | [] -> base ^ " ok"
  | vs ->
      let lines =
        List.map
          (fun (v : Oracle.violation) ->
            Printf.sprintf "  VIOLATION [%s] %s"
              (Oracle.invariant_name v.Oracle.invariant)
              v.Oracle.detail)
          vs
      in
      let filed =
        List.map (fun p -> Printf.sprintf "  filed %s" p) t.filed
      in
      String.concat "\n" ((base :: lines) @ filed)

let summary_to_text s =
  Printf.sprintf
    "fuzz: %d trial(s) seed %d: %d/%d check(s) passed, %d violation(s) in %d trial(s), %d shrink step(s), %d case(s) filed"
    s.trials s.seed s.checks_passed s.checks_run s.violations
    s.violating_trials s.shrink_steps s.filed

let first_error s =
  match s.findings with
  | [] -> None
  | f :: _ ->
      Some
        (Errors.violation
           ~invariant:(Oracle.invariant_name f.Oracle.violation.Oracle.invariant)
           (Printf.sprintf "%s (replay: spv fuzz --replay %d --max-gates %d)"
              f.Oracle.violation.Oracle.detail f.Oracle.found.Oracle.gen_seed
              f.Oracle.found.Oracle.max_gates))
