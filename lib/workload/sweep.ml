module Engine = Spv_engine.Engine
module G = Spv_stats.Gaussian
module Stage = Spv_core.Stage
module Pipeline = Spv_core.Pipeline
module Macro = Spv_circuit.Macro

let schema_version = 3

type scenario = {
  index : int;
  source : string;
  process : string;
  method_ : Engine.method_;
  t_target : float;
}

type row = {
  scenario : scenario;
  estimate : Engine.estimate;
  loss : float;
  macro_hits : int;
  macro_misses : int;
}
type result = { rows : row array; n_contexts : int }

let clamp01 v = Float.max 0.0 (Float.min 1.0 v)

exception Stopped

(* The importance estimator measures the loss directly; the yield is
   derived.  Clamp the *loss* first and derive the yield from the
   clamped value so the pair stays consistent: a self-normalised-weight
   excursion (loss marginally above 1 or below 0) must never ship
   [loss > 1] next to [yield = 0] in the same row. *)
let importance_row (l : Engine.estimate) =
  let loss = clamp01 l.Engine.value in
  ({ l with Engine.value = 1.0 -. loss }, loss)

let ctx_for ?(mode = Engine.Flat) ?macro_table ~tech source
    (process : Grid.process) =
  match source with
  | Grid.Moments { stages; rho; _ } ->
      let n = Array.length stages in
      let sts =
        Array.mapi
          (fun i (mu, sigma) ->
            Stage.of_moments ~name:(Printf.sprintf "s%d" i) ~mu ~sigma ())
          stages
      in
      Engine.Ctx.of_pipeline
        (Pipeline.make sts ~corr:(Spv_stats.Correlation.uniform ~n ~rho))
  | Grid.Circuit { net; _ } ->
      let tech =
        match process.Grid.inter_vth_mv with
        | None -> tech
        | Some mv -> Spv_process.Tech.with_inter_vth tech ~sigma_mv:mv
      in
      Engine.Ctx.of_circuits ~mode ?macro_table tech [| net |]

(* Yield estimates plus stable losses for one (ctx, method) over the
   whole target sweep.  The loss source depends on the estimator
   class: closed forms re-evaluate through [Engine.yield_loss] (cheap,
   and the only way to keep a deep-tail loss nonzero); sampling
   estimators take the complement of their own counts, which is exact
   at Monte-Carlo resolution; importance sampling estimates the loss
   directly and the yield is derived from it (bit-identical to
   [Engine.yield], which computes [1 - p_fail] the same way).
   [should_stop] is polled before each target, except that mc and
   adaptive evaluate the whole sweep in one shared sampling pass and
   poll once before it. *)
let eval_method ?(should_stop = fun () -> false) ~jobs ~seed ~n ~shards ctx
    method_ targets =
  let check () = if should_stop () then raise Stopped in
  match (method_ : Engine.method_) with
  | Mc | Adaptive_mc ->
      check ();
      Array.map
        (fun (e : Engine.estimate) ->
          (e, Float.max 0.0 (1.0 -. e.Engine.value)))
        (Engine.yield_targets ~method_ ?jobs ~shards ~seed ~n ctx
           ~t_targets:targets)
  | Importance ->
      Array.map
        (fun t_target ->
          check ();
          importance_row
            (Engine.yield_loss ~method_ ?jobs ~shards ~seed ~n ctx ~t_target))
        targets
  | Analytic_clark | Exact_independent | Quadrature ->
      Array.map
        (fun t_target ->
          check ();
          let e = Engine.yield ~method_ ?jobs ~shards ~seed ~n ctx ~t_target in
          let l = Engine.yield_loss ~method_ ctx ~t_target in
          (e, l.Engine.value))
        targets

let build ?mode ?(macro_table = Macro.Table.create ()) ~tech source process =
  let hits = Macro.Table.hits macro_table in
  let misses = Macro.Table.misses macro_table in
  let ctx = ctx_for ?mode ~macro_table ~tech source process in
  ( ctx,
    (Macro.Table.hits macro_table - hits, Macro.Table.misses macro_table - misses)
  )

let group_rows ?should_stop ?jobs ~seed (grid : Grid.t) ~first ctx
    (source, (process : Grid.process)) (macro_hits, macro_misses) =
  let targets = grid.Grid.targets in
  List.concat
    (List.mapi
       (fun m method_ ->
         let evals =
           eval_method ?should_stop ~jobs ~seed ~n:grid.Grid.n
             ~shards:grid.Grid.shards ctx method_ targets
         in
         List.init (Array.length evals) (fun k ->
             let estimate, loss = evals.(k) in
             {
               scenario =
                 {
                   index = first + (m * Array.length targets) + k;
                   source = Grid.source_label source;
                   process = process.Grid.p_label;
                   method_;
                   t_target = targets.(k);
                 };
               estimate;
               loss;
               macro_hits;
               macro_misses;
             }))
       grid.Grid.methods)

let run ?(mode = Engine.Flat) ?jobs ?(seed = Engine.default_seed)
    ?(tech = Spv_process.Tech.bptm70) ?ctx_provider
    ?(should_stop = fun () -> false) (grid : Grid.t) =
  (match Grid.validate grid with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sweep.run: " ^ msg));
  (* One macro table for the whole sweep (flat builds never touch
     it): a process override only changes the characterisation
     fingerprint, so across the process axis each block is
     characterised once per distinct (block, process) pair and every
     further context probe is a hit.  Contexts are built serially
     (jobs parallelises trials inside the engine, never context
     builds), so the per-context counter deltas are
     schedule-independent and the JSONL stays byte-identical across
     [jobs]. *)
  let provider =
    match ctx_provider with
    | Some p -> p
    | None -> build ~mode ~macro_table:(Macro.Table.create ()) ~tech
  in
  let groups = Grid.groups grid in
  let per_group =
    List.length grid.Grid.methods * Array.length grid.Grid.targets
  in
  let rows =
    List.concat
      (List.mapi
         (fun g ((source, process) as group) ->
           if should_stop () then raise Stopped;
           let ctx, counters = provider source process in
           group_rows ~should_stop ?jobs ~seed grid ~first:(g * per_group) ctx
             group counters)
         groups)
  in
  { rows = Array.of_list rows; n_contexts = List.length groups }

(* ---- JSONL ---------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no representation for non-finite numbers: [%.17g] would
   print [nan] or [inf] bare, corrupting the whole line for every
   downstream parser.  Every float in every JSON writer must go through
   this helper; the schema documents each float field as
   number-or-null. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let row_to_json r =
  let e = r.estimate in
  let hier_bound =
    match e.Engine.hier_bound with None -> "null" | Some b -> json_float b
  in
  let ess =
    match e.Engine.ess with None -> "null" | Some s -> json_float s
  in
  let proposal =
    match e.Engine.proposal with
    | None -> "null"
    | Some p -> Printf.sprintf "\"%s\"" (Engine.proposal_used_name p)
  in
  Printf.sprintf
    "{\"schema_version\":%d,\"scenario\":%d,\"source\":\"%s\",\"process\":\"%s\",\"method\":\"%s\",\"t_target\":%s,\"yield\":%s,\"std_error\":%s,\"n_samples\":%d,\"stop\":\"%s\",\"loss\":%s,\"hier_bound\":%s,\"macro_hits\":%d,\"macro_misses\":%d,\"ess\":%s,\"proposal\":%s}"
    schema_version r.scenario.index
    (json_escape r.scenario.source)
    (json_escape r.scenario.process)
    (Engine.method_name r.scenario.method_)
    (json_float r.scenario.t_target)
    (json_float e.Engine.value)
    (json_float e.Engine.std_error)
    e.Engine.n_samples
    (Engine.stop_reason_name e.Engine.stop)
    (json_float r.loss) hier_bound r.macro_hits r.macro_misses ess proposal

let to_jsonl result =
  let buf = Buffer.create (Array.length result.rows * 160) in
  Array.iter
    (fun r ->
      Buffer.add_string buf (row_to_json r);
      Buffer.add_char buf '\n')
    result.rows;
  Buffer.contents buf

(* The output is positional — [result.(i)] answers [stage_counts.(i)]
   — so duplicate or unsorted counts are well-defined (each entry is
   an independent lookup into one shared prefix-max table), not an
   error.  Only empty and non-positive inputs are rejected. *)
let stage_count_sweep ~stage ~rho ~stage_counts =
  if Array.length stage_counts = 0 then
    invalid_arg "Sweep.stage_count_sweep: no stage counts";
  Array.iter
    (fun n ->
      if n <= 0 then invalid_arg "Sweep.stage_count_sweep: stage count <= 0")
    stage_counts;
  let n_max = Array.fold_left max 1 stage_counts in
  let gs = Array.make n_max stage in
  let corr = Spv_stats.Correlation.uniform ~n:n_max ~rho in
  let prefixes = Spv_core.Clark.prefix_maxes gs ~corr in
  Array.map
    (fun n ->
      let tp = prefixes.(n - 1) in
      G.sigma tp /. G.mu tp)
    stage_counts
