module G = Spv_stats.Gaussian
module Rng = Spv_stats.Rng
module Mvn = Spv_stats.Mvn
module Pipeline = Spv_core.Pipeline
module Stage = Spv_core.Stage
module Ssta = Spv_circuit.Ssta
module Netlist = Spv_circuit.Netlist
module Macro = Spv_circuit.Macro

(* ---- evaluation modes ------------------------------------------------ *)

type mode = Flat | Hierarchical

let mode_name = function Flat -> "flat" | Hierarchical -> "hierarchical"

(* ---- evaluation contexts -------------------------------------------- *)

module Ctx = struct
  (* Block-granular state of a hierarchical context.  [h_flat] is the
     flat reference model (memoised per-stage critical-path analyses),
     kept so every estimate can report the model gap between the two
     evaluations as its error bound. *)
  type hier = {
    h_table : Macro.Table.t;
    h_fp : string;
    h_block_gates : int option;
    h_blocks : Macro.block array array;
    h_macros : Macro.t array array;
    h_flat : Pipeline.t;
    h_flat_dist : G.t;
  }

  type gate = {
    tech : Spv_process.Tech.t;
    nets : Netlist.t array;
    pitch : float;
    ff : Spv_process.Flipflop.t option;
    analyses : Ssta.stage_analysis array;
    sizes : float array array;
    s_vth : float;
    s_leff : float;
    revisions : int array;
        (* per-stage refresh counters: bumped by [refresh_stage] so
           derived caches (the sizing layer's sensitivity enclosures)
           can key on [(stage, revision)] and drop stale entries *)
    hier : hier option;
  }

  type t = {
    pipeline : Pipeline.t;
    dist : G.t;
    mvn : Mvn.t;
    independent : bool;
    gate : gate option;
  }

  let finish ?gate pipeline =
    {
      pipeline;
      dist = Pipeline.delay_distribution pipeline;
      mvn = Pipeline.mvn pipeline;
      independent = Spv_core.Yield.nearly_independent pipeline;
      gate;
    }

  let of_pipeline pipeline = finish pipeline

  (* Apply [f] once per distinct physical array element; repeated
     stages (identical netlist instantiated many times) share the
     result.  Quadratic in distinct elements, which stays tiny. *)
  let memo_by_identity f xs =
    let seen = ref [] in
    Array.map
      (fun x ->
        match List.find_opt (fun (x', _) -> x' == x) !seen with
        | Some (_, y) -> y
        | None ->
            let y = f x in
            seen := (x, y) :: !seen;
            y)
      xs

  let flat_stages ~positions analyses nets =
    Array.mapi
      (fun i net ->
        Stage.make ~name:(Netlist.name net) ~position:positions.(i)
          analyses.(i).Ssta.total)
      nets

  let of_circuits ?(mode = Flat) ?macro_table ?block_gates ?(pitch = 1.0) ?ff
      tech nets =
    if Array.length nets = 0 then
      invalid_arg "Engine.Ctx.of_circuits: no stages";
    let positions =
      Spv_process.Spatial.row_positions ~n:(Array.length nets) ~pitch
    in
    let corr_length = tech.Spv_process.Tech.corr_length in
    let analyses, pipeline, hier =
      match mode with
      | Flat ->
          let analyses =
            Array.map
              (fun net -> Ssta.analyse_stage ?ff tech net)
              nets
          in
          let pipeline =
            Pipeline.of_stages ~corr_length
              (flat_stages ~positions analyses nets)
          in
          (analyses, pipeline, None)
      | Hierarchical ->
          let table =
            match macro_table with
            | Some t -> t
            | None -> Macro.Table.create ()
          in
          let fp = Macro.Table.fingerprint ?ff tech in
          (* Hash each distinct physical netlist once per build: a
             pipeline instantiating one block RTL many times (the
             hierarchical sweet spot) would otherwise re-hash the same
             size array per stage. *)
          let stage_keys = memo_by_identity (Macro.Table.stage_hash table) nets in
          let entries =
            Array.mapi
              (fun i net ->
                Macro.Table.stage table ~fp ~stage_key:stage_keys.(i)
                  ?target_gates:block_gates tech net)
              nets
          in
          let analyses =
            Array.mapi
              (fun i net ->
                Macro.Table.flat_analysis table ~fp ~stage_key:stage_keys.(i)
                  ?ff tech net)
              nets
          in
          let hier_stages =
            Array.mapi
              (fun i net ->
                let comb = entries.(i).Macro.Table.se_delay in
                let total =
                  match ff with
                  | None -> comb
                  | Some ff ->
                      Spv_process.Gate_delay.add comb
                        (Spv_process.Flipflop.overhead ff)
                in
                Stage.make ~name:(Netlist.name net) ~position:positions.(i)
                  total)
              nets
          in
          let pipeline = Pipeline.of_stages ~corr_length hier_stages in
          let h_flat =
            Pipeline.of_stages ~corr_length
              (flat_stages ~positions analyses nets)
          in
          let hier =
            {
              h_table = table;
              h_fp = fp;
              h_block_gates = block_gates;
              h_blocks = Array.map (fun e -> e.Macro.Table.se_blocks) entries;
              h_macros = Array.map (fun e -> e.Macro.Table.se_macros) entries;
              h_flat;
              h_flat_dist = Pipeline.delay_distribution h_flat;
            }
          in
          (analyses, pipeline, Some hier)
    in
    finish
      ~gate:
        {
          tech;
          nets;
          pitch;
          ff;
          analyses;
          sizes = memo_by_identity Netlist.sizes_snapshot nets;
          s_vth = Spv_process.Tech.delay_sensitivity_vth tech;
          s_leff = Spv_process.Tech.delay_sensitivity_leff tech;
          revisions = Array.make (Array.length nets) 0;
          hier;
        }
      pipeline

  let pipeline t = t.pipeline
  let n_stages t = Pipeline.n_stages t.pipeline
  let delay_distribution t = t.dist
  let mvn t = t.mvn
  let nearly_independent t = t.independent
  let gate_level t = t.gate <> None

  let hier_of t =
    match t.gate with Some { hier = Some h; _ } -> Some h | _ -> None

  let mode t = match hier_of t with Some _ -> Hierarchical | None -> Flat
  let macro_table t = Option.map (fun h -> h.h_table) (hier_of t)
  let flat_reference t = Option.map (fun h -> h.h_flat) (hier_of t)

  let require_gate ~where t =
    match t.gate with
    | Some g -> g
    | None ->
        invalid_arg (where ^ ": context has no netlists (built from moments)")

  let check_stage ~where t i =
    if i < 0 || i >= n_stages t then invalid_arg (where ^ ": stage out of range")

  let nominal_sta t i =
    let g = require_gate ~where:"Engine.Ctx.nominal_sta" t in
    check_stage ~where:"Engine.Ctx.nominal_sta" t i;
    g.analyses.(i).Ssta.nominal

  let critical_path t i =
    (nominal_sta t i).Spv_circuit.Sta.critical_path

  let gate_sizes t i =
    let g = require_gate ~where:"Engine.Ctx.gate_sizes" t in
    check_stage ~where:"Engine.Ctx.gate_sizes" t i;
    Array.copy g.sizes.(i)

  let stage_revision t i =
    let g = require_gate ~where:"Engine.Ctx.stage_revision" t in
    check_stage ~where:"Engine.Ctx.stage_revision" t i;
    g.revisions.(i)

  let delay_sensitivities t =
    let g = require_gate ~where:"Engine.Ctx.delay_sensitivities" t in
    (g.s_vth, g.s_leff)

  let tech t = (require_gate ~where:"Engine.Ctx.tech" t).tech
  let pitch t = (require_gate ~where:"Engine.Ctx.pitch" t).pitch
  let flipflop t = (require_gate ~where:"Engine.Ctx.flipflop" t).ff

  let netlist t i =
    let g = require_gate ~where:"Engine.Ctx.netlist" t in
    check_stage ~where:"Engine.Ctx.netlist" t i;
    g.nets.(i)

  let stage_delay_model t i =
    check_stage ~where:"Engine.Ctx.stage_delay_model" t i;
    (Pipeline.stage t.pipeline i).Stage.delay

  let stat_delay t ~stage ~z =
    check_stage ~where:"Engine.Ctx.stat_delay" t stage;
    let g = Stage.gaussian (Pipeline.stage t.pipeline stage) in
    G.mu g +. (z *. G.sigma g)

  let n_blocks t i =
    check_stage ~where:"Engine.Ctx.n_blocks" t i;
    ignore (require_gate ~where:"Engine.Ctx.n_blocks" t);
    match hier_of t with
    | None -> 1 (* a flat stage is one block *)
    | Some h -> Array.length h.h_blocks.(i)

  let stage_macros t i =
    check_stage ~where:"Engine.Ctx.stage_macros" t i;
    ignore (require_gate ~where:"Engine.Ctx.stage_macros" t);
    match hier_of t with
    | None -> invalid_arg "Engine.Ctx.stage_macros: flat context"
    | Some h -> Array.copy h.h_macros.(i)

  let refreshed_flat_analysis g i =
    match g.hier with
    | None ->
        Ssta.analyse_stage ?ff:g.ff g.tech g.nets.(i)
    | Some h ->
        Macro.Table.flat_analysis h.h_table ~fp:h.h_fp ?ff:g.ff g.tech
          g.nets.(i)

  let refresh_stage t i =
    let g = require_gate ~where:"Engine.Ctx.refresh_stage" t in
    check_stage ~where:"Engine.Ctx.refresh_stage" t i;
    let a = refreshed_flat_analysis g i in
    let analyses = Array.copy g.analyses in
    analyses.(i) <- a;
    let sizes = Array.copy g.sizes in
    sizes.(i) <- Netlist.sizes_snapshot g.nets.(i);
    let old_stage = Pipeline.stage t.pipeline i in
    let remake total =
      Stage.make ~name:old_stage.Stage.name ~position:old_stage.Stage.position
        total
    in
    let revisions = Array.copy g.revisions in
    revisions.(i) <- revisions.(i) + 1;
    match g.hier with
    | None ->
        let pipeline = Pipeline.with_stage t.pipeline i (remake a.Ssta.total) in
        finish ~gate:{ g with analyses; sizes; revisions } pipeline
    | Some h ->
        (* Re-probe the macro table under the stage's new sizes: bands
           whose gates are untouched hit the cache, so only the blocks
           a resize actually reached are re-characterised. *)
        let entry =
          Macro.Table.stage h.h_table ~fp:h.h_fp ?target_gates:h.h_block_gates
            g.tech g.nets.(i)
        in
        let comb = entry.Macro.Table.se_delay in
        let total =
          match g.ff with
          | None -> comb
          | Some ff ->
              Spv_process.Gate_delay.add comb
                (Spv_process.Flipflop.overhead ff)
        in
        let pipeline = Pipeline.with_stage t.pipeline i (remake total) in
        let h_blocks = Array.copy h.h_blocks in
        h_blocks.(i) <- entry.Macro.Table.se_blocks;
        let h_macros = Array.copy h.h_macros in
        h_macros.(i) <- entry.Macro.Table.se_macros;
        let flat_stage = Pipeline.stage h.h_flat i in
        let h_flat =
          Pipeline.with_stage h.h_flat i
            (Stage.make ~name:flat_stage.Stage.name
               ~position:flat_stage.Stage.position a.Ssta.total)
        in
        let hier =
          {
            h with
            h_blocks;
            h_macros;
            h_flat;
            h_flat_dist = Pipeline.delay_distribution h_flat;
          }
        in
        finish
          ~gate:{ g with analyses; sizes; revisions; hier = Some hier }
          pipeline

  (* Canonical fingerprint of everything the estimators read from a
     context.  Gate-level: the characterisation fingerprint (tech,
     flip-flop) plus the per-stage structure+sizes
     hashes; moments-level: the stage delay decompositions, positions
     and the full correlation matrix, all as exact float bits.  Two
     contexts with equal fingerprints answer every estimator query
     identically, which is what lets a long-running service key a
     context cache on the inputs alone. *)
  let fingerprint t =
    let b = Buffer.create 256 in
    let f x = Buffer.add_string b (Printf.sprintf "%.17g;" x) in
    Buffer.add_string b (mode_name (mode t));
    Buffer.add_char b '|';
    (match t.gate with
    | Some g ->
        Buffer.add_string b (Macro.Table.fingerprint ?ff:g.ff g.tech);
        Buffer.add_char b '|';
        f g.pitch;
        Array.iter
          (fun net ->
            Buffer.add_string b (Printf.sprintf "%016Lx;" (Macro.hash net)))
          g.nets
    | None ->
        Buffer.add_string b "moments|";
        Array.iter
          (fun st ->
            let d = st.Stage.delay in
            f d.Spv_process.Gate_delay.nominal;
            f d.Spv_process.Gate_delay.sigma_inter;
            f d.Spv_process.Gate_delay.sigma_sys;
            f d.Spv_process.Gate_delay.sigma_rand;
            f st.Stage.position.Spv_process.Spatial.x;
            f st.Stage.position.Spv_process.Spatial.y)
          (Pipeline.stages t.pipeline);
        Buffer.add_char b '|';
        let corr = Pipeline.correlation t.pipeline in
        let n = Pipeline.n_stages t.pipeline in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            f (Spv_stats.Correlation.get corr i j)
          done
        done);
    Buffer.contents b

  let refresh_block t ~stage ~block =
    let where = "Engine.Ctx.refresh_block" in
    let g = require_gate ~where t in
    check_stage ~where t stage;
    (match hier_of t with
    | None ->
        if block <> 0 then
          invalid_arg (where ^ ": flat stages have exactly one block (0)")
    | Some h ->
        let blocks = h.h_blocks.(stage) in
        if block < 0 || block >= Array.length blocks then
          invalid_arg (where ^ ": block out of range");
        (* Contract: the resize is confined to [block].  Verify by
           re-hashing the other bands against their characterised
           sub-netlists — cheap integer work, no re-analysis. *)
        let fresh = Macro.partition ?target_gates:h.h_block_gates g.nets.(stage) in
        if Array.length fresh <> Array.length blocks then
          invalid_arg (where ^ ": band structure changed");
        Array.iteri
          (fun j fb ->
            if
              j <> block
              && not
                   (Int64.equal
                      (Macro.hash fb.Macro.b_net)
                      (Macro.hash blocks.(j).Macro.b_net))
            then
              invalid_arg
                (Printf.sprintf
                   "%s: block %d also changed; refresh it too (or use \
                    refresh_stage)"
                   where j))
          fresh);
    refresh_stage t stage
end

(* ---- estimator taxonomy --------------------------------------------- *)

type method_ =
  | Analytic_clark
  | Exact_independent
  | Mc
  | Adaptive_mc
  | Importance
  | Quadrature

type stop_reason = Closed_form | Converged | Sample_cap | Fixed_n

type proposal_used =
  | Prop_legacy
  | Prop_cone of int
  | Prop_plain

type estimate = {
  value : float;
  std_error : float;
  n_samples : int;
  method_ : method_;
  stop : stop_reason;
  hier_bound : float option;
  ess : float option;
  proposal : proposal_used option;
}

let method_name = function
  | Analytic_clark -> "clark"
  | Exact_independent -> "independent"
  | Mc -> "mc"
  | Adaptive_mc -> "adaptive"
  | Importance -> "importance"
  | Quadrature -> "quadrature"

let all_methods =
  [ Analytic_clark; Exact_independent; Mc; Adaptive_mc; Importance; Quadrature ]

let method_of_string s =
  List.find_opt (fun m -> method_name m = s) all_methods

let stop_reason_name = function
  | Closed_form -> "closed-form"
  | Converged -> "converged"
  | Sample_cap -> "sample-cap"
  | Fixed_n -> "fixed-n"

let proposal_used_name = function
  | Prop_legacy -> "legacy"
  | Prop_cone _ -> "cone"
  | Prop_plain -> "plain-fallback"

let pp_estimate ppf e =
  (if e.stop = Closed_form then
     Format.fprintf ppf "%.6f (%s, %s)" e.value (method_name e.method_)
       (stop_reason_name e.stop)
   else
     Format.fprintf ppf "%.6f +- %.2g (%s, n=%d, %s)" e.value e.std_error
       (method_name e.method_) e.n_samples (stop_reason_name e.stop));
  (match e.proposal with
  | None -> ()
  | Some (Prop_cone m) -> Format.fprintf ppf " [cone, %d mode%s]" m
      (if m = 1 then "" else "s")
  | Some p -> Format.fprintf ppf " [%s]" (proposal_used_name p));
  (match e.ess with
  | None -> ()
  | Some s -> Format.fprintf ppf " [ess=%.1f]" s);
  match e.hier_bound with
  | None -> ()
  | Some b -> Format.fprintf ppf " [|flat-hier| <= %.3g]" b

let recommended ctx =
  if Ctx.nearly_independent ctx then Exact_independent else Analytic_clark

(* ---- debug-mode postconditions --------------------------------------- *)

(* [Spv_analysis.Bounds] registers interval-bound oracles here (a
   function pointer avoids a dependency cycle: analysis depends on the
   engine, not vice versa).  Checks only run when debug mode is on. *)

type check = Ctx.t -> t_target:float option -> estimate -> (unit, string) result

(* Keyed by name, in first-install order: re-installing under a name
   replaces that check in place, so every installer is idempotent and
   no installer can drop another's check. *)
let estimate_checks : (string * check) list ref = ref []

let debug_checks =
  ref
    (match Sys.getenv_opt "SPV_DEBUG_BOUNDS" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let set_debug_checks b = debug_checks := b
let debug_checks_enabled () = !debug_checks
let set_estimate_check ~name check =
  estimate_checks :=
    match check with
    | None -> List.remove_assoc name !estimate_checks
    | Some f when List.mem_assoc name !estimate_checks ->
        List.map
          (fun (n, g) -> if n = name then (n, f) else (n, g))
          !estimate_checks
    | Some f -> !estimate_checks @ [ (name, f) ]

(* ---- analyzer-derived importance proposals --------------------------- *)

(* [Spv_analysis.Cones] registers its failure-cone proposal builder
   here — the same function-pointer pattern as the estimate checks, so
   the engine keeps not depending on the analysis layer.  The provider
   maps (ctx, t_target) to whitened mixture shifts in the stage-MVN's
   Cholesky basis plus unnormalised mixture weights; [None] means no
   cone dominates and the estimator falls back to the legacy
   per-stage mean-shift mixture. *)

type proposal_provider =
  Ctx.t -> t_target:float -> (float array array * float array) option

let proposal_provider : proposal_provider option ref = ref None
let register_proposal_provider f = proposal_provider := Some f

let postcondition ~where ctx ~t_target e =
  (if !debug_checks then
     List.iter
       (fun (_, f) ->
         match f ctx ~t_target e with
         | Ok () -> ()
         | Error msg ->
             failwith
               (Printf.sprintf "%s: bounds postcondition violated: %s" where
                  msg))
       !estimate_checks);
  e

(* ---- the shard driver ------------------------------------------------ *)

(* Every sampling estimator draws on [shards] independent RNG streams
   split from one seed.  Shard results are merged in fixed shard order,
   and shard state never depends on which domain ran the shard, so the
   outcome is a pure function of (seed, shards, estimator parameters)
   — [jobs] only changes wall-clock time. *)

let default_shards = 8
let default_seed = 42

let check_positive ~where name v =
  if v <= 0 then
    invalid_arg (Printf.sprintf "%s: %s must be positive" where name)

let resolve_jobs ~where jobs =
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  check_positive ~where "jobs" jobs;
  jobs

(* How many trials a run draws: exactly [n] in one round, or rounds of
   [batch] until the relative standard error reaches [rel_se_target]
   (once [min_samples] are in) or [max_samples] are drawn. *)
type budget =
  | Fixed of int
  | Adaptive of {
      batch : int;
      min_samples : int;
      rel_se_target : float;
      max_samples : int;
    }

let fixed ~where n =
  check_positive ~where "n" n;
  Fixed n

let adaptive ~where ~batch ~min_samples ~rel_se_target ~max_samples =
  check_positive ~where "batch" batch;
  check_positive ~where "min_samples" min_samples;
  check_positive ~where "max_samples" max_samples;
  if not (rel_se_target > 0.0) then
    invalid_arg (where ^ ": rel_se_target must be positive");
  Adaptive { batch; min_samples; rel_se_target; max_samples }

(* The one shard driver.  [make] builds each shard's trial state from
   a copy of its stream once, in the lane that first runs the shard:
   the domain that writes the Rng state, scratch and counters on every
   trial allocates them, instead of the caller packing every shard's
   next to each other, where two lanes would write neighbouring cache
   lines (a copy draws the same bits as its original).  The function
   [make] returns runs [count] trials, numbered from [first] within the
   round, and reports the shard's cumulative partial result.  A round
   of [size] trials gives each shard [size / shards] of them, the first
   [size mod shards] shards one more, so a fixed-[n] run draws exactly
   what the first round of an adaptive run with [batch = n] draws.

   After each round, [summary] maps the partials and the trials drawn
   so far to one (snapshot, estimate, standard error) per entry — for
   [count], one per target, whose snapshot is that target's total.  In
   an adaptive run each entry stops at the first round where it
   converges (its estimate is within [rel_se_target] once [min_samples]
   are in) or at [max_samples], and the run ends once every entry has
   stopped.  A fixed-[n] run is one round.  Returns, per entry, the
   snapshot, trials drawn and stop reason of its stopping round.  A
   shard's stream does not depend on which entries are still running,
   so each entry's result is the one a run with that entry alone
   returns. *)
let drive ~jobs ~shards ~seed ~budget ~make ~summary =
  let streams = Rng.split (Rng.create ~seed) shards in
  let shard = Array.make shards None in
  let run i ~first ~count =
    match shard.(i) with
    | Some trials -> trials ~first ~count
    | None ->
        let trials = make (Rng.copy streams.(i)) in
        shard.(i) <- Some trials;
        trials ~first ~count
  in
  let rec round drawn stopped =
    let size =
      match budget with
      | Fixed n -> n
      | Adaptive a -> min a.batch (a.max_samples - drawn)
    in
    let counts =
      Array.init shards (fun i ->
          (size / shards) + if i < size mod shards then 1 else 0)
    in
    let first = Array.make shards 0 in
    for i = 1 to shards - 1 do
      first.(i) <- first.(i - 1) + counts.(i - 1)
    done;
    let parts =
      Par.run ~jobs
        (Array.init shards (fun i () ->
             run i ~first:first.(i) ~count:counts.(i)))
    in
    let drawn = drawn + size in
    let entries = summary parts ~drawn in
    match budget with
    | Fixed _ -> Array.map (fun (snap, _, _) -> (snap, drawn, Fixed_n)) entries
    | Adaptive a ->
        let stop_at (snap, value, se) =
          if
            drawn >= a.min_samples
            && Float.abs value > 0.0
            && se /. Float.abs value <= a.rel_se_target
          then Some (snap, drawn, Converged)
          else if drawn >= a.max_samples then Some (snap, drawn, Sample_cap)
          else None
        in
        let stopped =
          if Array.length stopped = 0 then Array.map stop_at entries
          else
            Array.map2
              (fun prev e -> match prev with None -> stop_at e | Some _ -> prev)
              stopped entries
        in
        if Array.for_all Option.is_some stopped then Array.map Option.get stopped
        else round drawn stopped
  in
  round 0 [||]

(* Which side of a target a trial's event is: the pipeline delay meets
   it ([x <= t], yield) or misses it ([x > t], loss). *)
type side = Meets | Misses

let binomial_se p n = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. float_of_int n)

(* Counting core: one sample per trial, one event counter per target.
   A T_target sweep pays for the sampling once, adaptive or not, and
   each target's count, trials drawn and stop reason equal those of a
   single-target run at the same (seed, shards, budget).  Returns them
   per target. *)
let count ~jobs ~shards ~seed ~budget ~side ~targets ~make_sample =
  let nt = Array.length targets in
  let make rng =
    let sample = make_sample rng and hits = Array.make nt 0 in
    fun ~first:_ ~count ->
      for _ = 1 to count do
        let x = sample () in
        for k = 0 to nt - 1 do
          let hit =
            match side with
            | Meets -> x <= targets.(k)
            | Misses -> x > targets.(k)
          in
          if hit then hits.(k) <- hits.(k) + 1
        done
      done;
      hits
  in
  let summary parts ~drawn =
    Array.init nt (fun k ->
        let hits = Array.fold_left (fun acc hits -> acc + hits.(k)) 0 parts in
        let p = float_of_int hits /. float_of_int drawn in
        (hits, p, binomial_se p drawn))
  in
  drive ~jobs ~shards ~seed ~budget ~make ~summary

(* Moments core: Welford accumulation per shard, Chan's parallel merge
   across shards (applied in fixed shard order). *)
type moments = { mutable m_n : int; mutable m_mean : float; mutable m_m2 : float }

let moments_add m x =
  m.m_n <- m.m_n + 1;
  let d = x -. m.m_mean in
  m.m_mean <- m.m_mean +. (d /. float_of_int m.m_n);
  m.m_m2 <- m.m_m2 +. (d *. (x -. m.m_mean))

let moments_merge (n1, mean1, m2a) (n2, mean2, m2b) =
  if n2 = 0 then (n1, mean1, m2a)
  else if n1 = 0 then (n2, mean2, m2b)
  else begin
    let n = n1 + n2 in
    let d = mean2 -. mean1 in
    let fn1 = float_of_int n1 and fn2 = float_of_int n2 in
    let fn = float_of_int n in
    (n, mean1 +. (d *. fn2 /. fn), m2a +. m2b +. (d *. d *. fn1 *. fn2 /. fn))
  end

let mean_se (n, mean, m2) =
  let se =
    if n >= 2 then sqrt (m2 /. float_of_int (n - 1) /. float_of_int n)
    else infinity
  in
  (mean, se)

(* Returns the merged (n, mean, M2) and the stop reason. *)
let moments ~jobs ~shards ~seed ~budget ~make_sample =
  let merge parts = Array.fold_left moments_merge (0, 0.0, 0.0) parts in
  let make rng =
    let sample = make_sample rng in
    let m = { m_n = 0; m_mean = 0.0; m_m2 = 0.0 } in
    fun ~first:_ ~count ->
      for _ = 1 to count do
        moments_add m (sample ())
      done;
      (m.m_n, m.m_mean, m.m_m2)
  in
  let summary parts ~drawn:_ =
    let m = merge parts in
    let mean, se = mean_se m in
    [| (m, mean, se) |]
  in
  let m, _, stop = (drive ~jobs ~shards ~seed ~budget ~make ~summary).(0) in
  (m, stop)

(* Fill core: trial [k] of a fixed-[n] run writes its own output slot,
   so the sample order is the shard order whatever [jobs] is. *)
let fill ~jobs ~shards ~seed ~n ~make_trial =
  let make rng =
    let trial = make_trial rng in
    fun ~first ~count ->
      for k = first to first + count - 1 do
        trial k
      done
  in
  let summary _ ~drawn:_ = [||] in
  ignore (drive ~jobs ~shards ~seed ~budget:(Fixed n) ~make ~summary)

(* ---- estimators ------------------------------------------------------ *)

(* A shard's pipeline-delay draw: its own MVN scratch, built in the
   shard's [make]. *)
let max_sampler mvn rng =
  let s = Mvn.sampler mvn in
  fun () -> Mvn.sample_max s rng

let sampled ~method_ ~stop ~n ?ess ?used value std_error =
  {
    value;
    std_error;
    n_samples = n;
    method_;
    stop;
    hier_bound = None;
    ess;
    proposal = used;
  }

let closed ~method_ value = sampled ~method_ ~stop:Closed_form ~n:0 value 0.0

let binomial ~method_ ~stop ~n hits =
  let p = float_of_int hits /. float_of_int n in
  sampled ~method_ ~stop ~n p (binomial_se p n)

(* One importance-sampling run shared by yield and loss: resolves the
   proposal (analyzer cones when a provider is installed and returns
   one, the legacy per-stage mixture otherwise), detects body targets
   — max whitened shift below [Importance.body_shift_threshold], where
   mean-shifting is statistically inert — and falls back to plain Monte-Carlo with
   the explicit [Prop_plain] marker instead of silently degrading
   (DESIGN §8).  Returns the failure probability side; ESS is the
   self-normalised weight diagnostic (sum w)^2 / sum w^2 computed from
   the merged shard moments. *)
let importance_loss ~where ~jobs ~shards ~seed ~n ctx ~t_target =
  let jobs = resolve_jobs ~where jobs in
  let budget = fixed ~where n in
  let mvn = Ctx.mvn ctx in
  let cone_shifts =
    match !proposal_provider with None -> None | Some f -> f ctx ~t_target
  in
  let plan =
    match cone_shifts with
    | Some (shifts, alphas) ->
        Spv_stats.Importance.plan ~z_shifts:shifts ~z_alphas:alphas mvn
          ~threshold:t_target
    | None -> Spv_stats.Importance.plan mvn ~threshold:t_target
  in
  if
    Spv_stats.Importance.max_shift_norm plan
    < Spv_stats.Importance.body_shift_threshold
  then begin
    (* Body target: every useful shift is ~0, so reweighted sampling
       is plain sampling with extra variance in the bookkeeping.  Run
       the plain Bernoulli estimator and say so. *)
    let make_sample = max_sampler mvn in
    let fails, _, _ =
      (count ~jobs ~shards ~seed ~budget ~side:Misses ~targets:[| t_target |]
         ~make_sample).(0)
    in
    let p = float_of_int fails /. float_of_int n in
    (p, binomial_se p n, float_of_int fails, Prop_plain)
  end
  else begin
    let make_sample rng =
      let s = Spv_stats.Importance.sampler plan in
      fun () -> Spv_stats.Importance.draw_weight s rng
    in
    let (n_run, mean, m2), _ =
      moments ~jobs ~shards ~seed ~budget ~make_sample
    in
    let p_fail, se = mean_se (n_run, mean, m2) in
    let se = if Float.is_finite se then se else 0.0 in
    let fn = float_of_int n_run in
    let sum = fn *. mean in
    let sum_sq = m2 +. (fn *. mean *. mean) in
    let ess = if sum_sq > 0.0 then sum *. sum /. sum_sq else 0.0 in
    let used =
      match cone_shifts with
      | Some (shifts, _) -> Prop_cone (Array.length shifts)
      | None -> Prop_legacy
    in
    (p_fail, se, ess, used)
  end

let cdf0 g t = if G.sigma g = 0.0 then (if G.mu g <= t then 1.0 else 0.0) else G.cdf g t
let sf0 g t = if G.sigma g = 0.0 then (if G.mu g <= t then 0.0 else 1.0) else G.sf g t

let abb_closed_policy = { Spv_core.Adaptive.range = 0.0 }

(* The closed form of [method_]'s family for one side of the target, on
   one model (a pipeline and its Clark delay distribution): the
   independent product for [Exact_independent], the zero-range ABB
   quadrature for [Quadrature], and the Clark Gaussian for Clark and
   the sampling methods (which draw from the MVN whose max it
   approximates). *)
let closed_form side method_ pipeline dist ~t_target =
  match (method_, side) with
  | Exact_independent, Meets ->
      Spv_core.Yield.independent_exact pipeline ~t_target
  | Exact_independent, Misses ->
      Spv_core.Yield.independent_exact_loss pipeline ~t_target
  | Quadrature, Meets ->
      Spv_core.Adaptive.yield_with_abb ~policy:abb_closed_policy pipeline
        ~t_target
  | Quadrature, Misses ->
      Spv_core.Adaptive.loss_with_abb ~policy:abb_closed_policy pipeline
        ~t_target
  | (Analytic_clark | Mc | Adaptive_mc | Importance), Meets ->
      cdf0 dist t_target
  | (Analytic_clark | Mc | Adaptive_mc | Importance), Misses ->
      sf0 dist t_target

(* ---- flat-vs-hierarchical error bounds ------------------------------- *)

(* In hierarchical mode the estimate carries the model gap between the
   context's flat reference (memoised critical-path analyses) and the
   macro-composed model it actually evaluated, measured in the same
   closed-form family as the estimator ([closed_form]).  For closed
   forms the reported flat and hierarchical values differ by exactly
   this gap, so the bound is tight by construction; sampling estimators
   add their own noise on top, which callers account for with a
   z * std_error allowance. *)

let hier_bound side ctx ~method_ ~t_target =
  Option.map
    (fun h ->
      let value pipeline dist =
        closed_form side method_ pipeline dist ~t_target
      in
      Float.abs
        (value h.Ctx.h_flat h.Ctx.h_flat_dist
        -. value (Ctx.pipeline ctx) (Ctx.delay_distribution ctx)))
    (Ctx.hier_of ctx)

let hier_bound_mean ctx =
  Option.map
    (fun h ->
      Float.abs (G.mu h.Ctx.h_flat_dist -. G.mu (Ctx.delay_distribution ctx)))
    (Ctx.hier_of ctx)

let check_target ~where t_target =
  if not (Float.is_finite t_target) then
    invalid_arg (where ^ ": non-finite t_target")

(* [P{delay <= t}] ([Meets]) or [P{delay > t}] ([Misses]) for every
   target.  [Mc] and [Adaptive_mc] share one sampling pass across the
   targets (an adaptive target stops counting at its own round); the
   closed forms and importance sampling evaluate target by target.
   Registered oracles check yield semantics, so only the [Meets] side
   runs the postcondition. *)
let probability ~where ~side ?(method_ = Adaptive_mc) ?jobs
    ?(shards = default_shards) ?(seed = default_seed) ?(n = 10_000)
    ?(batch = 1024) ?(min_samples = 1000) ?(rel_se_target = 0.01)
    ?(max_samples = 1_000_000) ctx ~t_targets =
  if Array.length t_targets = 0 then invalid_arg (where ^ ": no targets");
  Array.iter (check_target ~where) t_targets;
  check_positive ~where "shards" shards;
  let hits budget targets =
    let jobs = resolve_jobs ~where jobs in
    let mvn = Ctx.mvn ctx in
    let make_sample = max_sampler mvn in
    Array.map
      (fun (hits, drawn, stop) -> binomial ~method_ ~stop ~n:drawn hits)
      (count ~jobs ~shards ~seed ~budget ~side ~targets ~make_sample)
  in
  let estimates =
    match method_ with
    | Analytic_clark | Exact_independent | Quadrature ->
        Array.map
          (fun t_target ->
            closed ~method_
              (closed_form side method_ (Ctx.pipeline ctx)
                 (Ctx.delay_distribution ctx) ~t_target))
          t_targets
    | Mc -> hits (fixed ~where n) t_targets
    | Adaptive_mc ->
        hits
          (adaptive ~where ~batch ~min_samples ~rel_se_target ~max_samples)
          t_targets
    | Importance ->
        Array.map
          (fun t_target ->
            let p_fail, se, ess, used =
              importance_loss ~where ~jobs ~shards ~seed ~n ctx ~t_target
            in
            let p = match side with Meets -> 1.0 -. p_fail | Misses -> p_fail in
            sampled ~method_ ~stop:Fixed_n ~n ~ess ~used
              (Float.max 0.0 (Float.min 1.0 p))
              se)
          t_targets
  in
  Array.map2
    (fun t_target e ->
      let e = { e with hier_bound = hier_bound side ctx ~method_ ~t_target } in
      match side with
      | Meets -> postcondition ~where ctx ~t_target:(Some t_target) e
      | Misses -> e)
    t_targets estimates

let yield ?method_ ?jobs ?shards ?seed ?n ?batch ?min_samples ?rel_se_target
    ?max_samples ctx ~t_target =
  (probability ~where:"Engine.yield" ~side:Meets ?method_ ?jobs ?shards ?seed
     ?n ?batch ?min_samples ?rel_se_target ?max_samples ctx
     ~t_targets:[| t_target |]).(0)

let yield_targets ?method_ ?jobs ?shards ?seed ?n ?batch ?min_samples
    ?rel_se_target ?max_samples ctx ~t_targets =
  probability ~where:"Engine.yield_targets" ~side:Meets ?method_ ?jobs ?shards
    ?seed ?n ?batch ?min_samples ?rel_se_target ?max_samples ctx ~t_targets

let yield_loss ?method_ ?jobs ?shards ?seed ?n ?batch ?min_samples
    ?rel_se_target ?max_samples ctx ~t_target =
  (probability ~where:"Engine.yield_loss" ~side:Misses ?method_ ?jobs ?shards
     ?seed ?n ?batch ?min_samples ?rel_se_target ?max_samples ctx
     ~t_targets:[| t_target |]).(0)

let delay_mean ?(method_ = Adaptive_mc) ?jobs ?(shards = default_shards)
    ?(seed = default_seed) ?(n = 10_000) ?(batch = 1024) ?(min_samples = 1000)
    ?(rel_se_target = 0.01) ?(max_samples = 1_000_000) ctx =
  let where = "Engine.delay_mean" in
  check_positive ~where "shards" shards;
  let sampled_mean budget =
    let jobs = resolve_jobs ~where jobs in
    let mvn = Ctx.mvn ctx in
    let make_sample = max_sampler mvn in
    let (drawn, mean, m2), stop =
      moments ~jobs ~shards ~seed ~budget ~make_sample
    in
    let mean, se = mean_se (drawn, mean, m2) in
    let se = if Float.is_finite se then se else 0.0 in
    sampled ~method_ ~stop ~n:drawn mean se
  in
  let e =
    match method_ with
    | Analytic_clark -> closed ~method_ (G.mu (Ctx.delay_distribution ctx))
    | Mc -> sampled_mean (fixed ~where n)
    | Adaptive_mc ->
        sampled_mean
          (adaptive ~where ~batch ~min_samples ~rel_se_target ~max_samples)
    | (Exact_independent | Importance | Quadrature) as m ->
        invalid_arg
          (Printf.sprintf "%s: method %s unsupported (use clark, mc or adaptive)"
             where (method_name m))
  in
  postcondition ~where ctx ~t_target:None
    { e with hier_bound = hier_bound_mean ctx }

let sample_delays ?jobs ?(shards = default_shards) ?(seed = default_seed) ctx
    ~n =
  let where = "Engine.sample_delays" in
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "shards" shards;
  check_positive ~where "n" n;
  let mvn = Ctx.mvn ctx in
  let out = Array.make n 0.0 in
  fill ~jobs ~shards ~seed ~n ~make_trial:(fun rng ->
      let sample = max_sampler mvn rng in
      fun k -> out.(k) <- sample ());
  out

let gate_plan ~where ?exact ctx =
  let g = Ctx.require_gate ~where ctx in
  Ssta.plan ?exact ~pitch:g.Ctx.pitch ?ff:g.Ctx.ff g.Ctx.tech g.Ctx.nets

let gate_level_delays ?exact ?jobs ?(shards = default_shards)
    ?(seed = default_seed) ctx ~n =
  let where = "Engine.gate_level_delays" in
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "shards" shards;
  check_positive ~where "n" n;
  let plan = gate_plan ~where ?exact ctx in
  let out = Array.make n 0.0 in
  fill ~jobs ~shards ~seed ~n ~make_trial:(fun rng ->
      let smp = Ssta.sampler plan in
      fun k -> out.(k) <- Ssta.draw_pipeline_delay smp rng);
  out

let gate_level_stage_samples ?exact ?jobs ?(shards = default_shards)
    ?(seed = default_seed) ctx ~n =
  let where = "Engine.gate_level_stage_samples" in
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "shards" shards;
  check_positive ~where "n" n;
  let plan = gate_plan ~where ?exact ctx in
  let n_stages = Ctx.n_stages ctx in
  let out = Array.init n_stages (fun _ -> Array.make n 0.0) in
  fill ~jobs ~shards ~seed ~n ~make_trial:(fun rng ->
      let smp = Ssta.sampler plan and stages = Float.Array.make n_stages 0.0 in
      fun k ->
        Ssta.draw_stage_delays_into smp rng stages;
        for s = 0 to n_stages - 1 do
          out.(s).(k) <- Float.Array.get stages s
        done);
  out

let abb_mc_yield ?policy ?jobs ?(shards = default_shards)
    ?(seed = default_seed) ctx ~n ~t_target =
  let where = "Engine.abb_mc_yield" in
  check_target ~where t_target;
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "shards" shards;
  let budget = fixed ~where n in
  let plan = Spv_core.Adaptive.plan ?policy (Ctx.pipeline ctx) in
  let make_sample rng =
    let sm = Spv_core.Adaptive.sampler plan in
    fun () -> Spv_core.Adaptive.sample_delay sm rng
  in
  let hits, drawn, stop =
    (count ~jobs ~shards ~seed ~budget ~side:Meets ~targets:[| t_target |]
       ~make_sample).(0)
  in
  binomial ~method_:Mc ~stop ~n:drawn hits
