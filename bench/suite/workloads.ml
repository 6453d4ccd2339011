(* The five benchmark workloads.

   A workload's [setup] builds every input from the seed and returns an
   [instance]: [warmup] runs the untimed warm-up pass, [call i] runs
   the i-th top-level call of a timed pass and returns the work units it
   completed (it raises [Check_failed] when the output check fails), and
   [layers] computes the per-layer metrics from the spans recorded while
   tracing was on — running whatever extra measurement a layer needs
   (the in-process serve pass, the jobs=1 subset, per-invariant checks,
   ...). *)

module Engine = Spv_engine.Engine
module Grid = Spv_workload.Grid
module Sweep = Spv_workload.Sweep
module Serve = Spv_workload.Serve
module Netlist = Spv_circuit.Netlist
module Generators = Spv_circuit.Generators
module Global_opt = Spv_sizing.Global_opt
module Sens_hook = Spv_sizing.Sens_hook
module Oracle = Spv_robust.Oracle
module Fuzz_run = Spv_robust.Fuzz_run

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type instance = {
  warmup : unit -> unit;
  call : int -> int;
  rss_kib : unit -> int;  (** peak RSS of the process under test *)
  layers : calls:int array -> budget_s:float -> metric list;
      (** after a traced pass whose traced calls had the indices
          [calls]; extra measurement runs for about [budget_s] seconds *)
  close : unit -> unit;
}

type t = {
  name : string;
  jobs : int;  (** SPV_JOBS pinned for the workload *)
  unit_ : string;  (** one unit of work *)
  block : int;  (** calls per stratified block; passes end on a boundary *)
  rss_after : int;
      (** peak RSS is read at the first block boundary after this many
          timed calls *)
  setup : seed:int -> Spans.t -> instance;
}

(* ---- shared helpers -------------------------------------------------- *)

let span = Spans.with_span
let ms_of_ns ns = float_of_int ns /. 1e6
let sec_of_ns ns = float_of_int ns /. 1e9
let tech = Spv_process.Tech.bptm70

(* /proc/<pid>/status VmHWM, in KiB (0 where /proc is unavailable). *)
let vm_hwm_kib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | n :: _ -> Option.value (int_of_string_opt n) ~default:acc
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' text)

let self_rss () = vm_hwm_kib "self"

(* The hooks the CLI installs at startup, installed once per process. *)
let hooks =
  lazy
    (Spv_analysis.Bounds.install_engine_check ();
     Spv_analysis.Affine_sta.install_engine_check ();
     Spv_analysis.Certify.install_sizing_check ();
     Spv_analysis.Cones.install_engine_proposal ();
     Spv_analysis.Dominance.install_sizing_prune ())

(* Allocation and major-collection counters around [f], folded into
   the recorder's counters while tracing. *)
let with_gc tr f =
  if not (Spans.enabled tr) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let r = f () in
    let s1 = Gc.quick_stat () in
    let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
    Spans.count tr "gc.alloc_words" (words s1 -. words s0);
    Spans.count tr "gc.major_collections"
      (float_of_int (s1.major_collections - s0.major_collections));
    r
  end

(* Results of a call's output, compared against the first time the same
   input was served: [first.(k)] holds it once known. *)
let same_as_first first k v ~what =
  match first.(k) with
  | None -> first.(k) <- Some v
  | Some v0 -> if v0 <> v then fail "%s %d differs from its first result" what k

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Mean duration of the spans called [name], in ms. *)
let mean_ms spans name =
  let d = Spans.durations spans name in
  ms_of_ns (Array.fold_left ( + ) 0 d) /. float_of_int (max 1 (Array.length d))

let time_ns f =
  let t0 = Spans.now_ns () in
  let r = f () in
  (r, Spans.now_ns () - t0)

(* Run [f i] for i = 0, 1, ... until [budget_s] has passed and at least
   [min] calls ran, or [max] calls ran; returns the call count. *)
let for_budget ?(max = max_int) ~budget_s ~min f =
  let t0 = Spans.now_ns () in
  let i = ref 0 in
  while !i < max && (!i < min || sec_of_ns (Spans.now_ns () - t0) < budget_s) do
    f !i;
    incr i
  done;
  !i

let parse_grid text =
  match Grid.of_string text with
  | Ok g -> g
  | Error e -> failwith (Grid.parse_error_to_string e)

(* Clark (mu, sigma) of a moments source, to place targets around. *)
let clark_of_grid text =
  let g = parse_grid (text ^ "targets 0\nmethod clark\n") in
  let d =
    Engine.Ctx.delay_distribution (Sweep.ctx_for ~tech (List.hd g.Grid.sources) Grid.nominal)
  in
  (Spv_stats.Gaussian.mu d, Spv_stats.Gaussian.sigma d)

(* ---- sweep-mc -------------------------------------------------------- *)

let sweep_blocks = 6
let sweep_warmup = 8

let sweep_setup ~seed tr =
  Lazy.force hooks;
  let grids =
    Array.map
      (fun m ->
        let base = Gen.moments_lines m in
        let mu, sigma = clark_of_grid base in
        let targets = Gen.spaced_targets ~mu ~sigma ~lo_k:0.0 ~hi_k:4.5 ~count:6 in
        span tr "workload.grid_parse" (fun () ->
            parse_grid (Gen.sweep_grid m ~targets)))
      (Gen.sweep_specs ~seed ~blocks:sweep_blocks)
  in
  let n = Array.length grids in
  let first = Array.make n None in
  let samples = ref 0 and adaptive = ref 0 and converged = ref 0 in
  let imp_draws = ref 0 and imp_ess = ref 0.0 in
  let ctx_provider src proc =
    (span tr "engine.ctx_build" (fun () -> Sweep.ctx_for ~tech src proc), (0, 0))
  in
  let run ~jobs g = Sweep.run ~jobs ~ctx_provider g in
  let check k (res : Sweep.result) jsonl =
    Array.iter
      (fun (r : Sweep.row) ->
        let y = r.Sweep.estimate.Engine.value in
        if not (Float.abs (y +. r.Sweep.loss -. 1.0) <= 1e-9) then
          fail "grid %d scenario %d: yield %.17g + loss %.17g <> 1" k
            r.Sweep.scenario.Sweep.index y r.Sweep.loss)
      res.Sweep.rows;
    same_as_first first k jsonl ~what:"grid"
  in
  let tally (res : Sweep.result) =
    if Spans.enabled tr then
      Array.iter
        (fun (r : Sweep.row) ->
          let e = r.Sweep.estimate in
          samples := !samples + e.Engine.n_samples;
          match e.Engine.method_ with
          | Engine.Adaptive_mc ->
              incr adaptive;
              if e.Engine.stop = Engine.Converged then incr converged
          | Engine.Importance ->
              imp_draws := !imp_draws + e.Engine.n_samples;
              imp_ess := !imp_ess +. Option.value e.Engine.ess ~default:0.0
          | _ -> ())
        res.Sweep.rows
  in
  let call i =
    let k = i mod n in
    let res =
      with_gc tr (fun () -> span tr "engine.sweep_run" (fun () -> run ~jobs:2 grids.(k)))
    in
    let jsonl = span tr "workload.jsonl_emit" (fun () -> Sweep.to_jsonl res) in
    span tr "bench.check" (fun () ->
        check k res jsonl;
        tally res);
    Array.length res.Sweep.rows
  in
  let warmup () =
    for k = 0 to sweep_warmup - 1 do
      let res = run ~jobs:1 grids.(k) in
      check k res (Sweep.to_jsonl res)
    done
  in
  let layers ~calls ~budget_s:_ =
    let spans = List.filter (fun s -> s.Spans.call_id >= 0) (Spans.spans tr) in
    let per_call x = x /. float_of_int (max 1 (Array.length calls)) in
    let est_self = Spans.self_ns spans "engine.sweep_run" in
    let subset ~jobs =
      snd
        (time_ns (fun () ->
             for k = 0 to sweep_warmup - 1 do
               ignore (run ~jobs grids.(k))
             done))
    in
    let t1 = subset ~jobs:1 and t2 = subset ~jobs:2 in
    [
      metric "workload.jsonl_emit_ms" "ms"
        (per_call (ms_of_ns (Spans.total_ns spans "workload.jsonl_emit")));
      metric "engine.ctx_build_ms" "ms" (mean_ms spans "engine.ctx_build");
      metric "engine.estimate_self_ms" "ms" (per_call (ms_of_ns est_self));
      metric "engine.trials_per_s" "1/s" (float_of_int !samples /. sec_of_ns est_self);
      metric "engine.alloc_words_per_trial" "words"
        (Spans.counter tr "gc.alloc_words" /. float_of_int (max 1 !samples));
      metric "gc.major_collections_per_call" "count"
        (per_call (Spans.counter tr "gc.major_collections"));
      metric "engine.adaptive_converged_frac" "ratio"
        (float_of_int !converged /. float_of_int (max 1 !adaptive));
      metric "engine.importance_ess_per_draw" "ratio"
        (!imp_ess /. float_of_int (max 1 !imp_draws));
      metric "par.speedup_jobs2" "ratio" (float_of_int t1 /. float_of_int t2);
    ]
  in
  { warmup; call; rss_kib = self_rss; layers; close = ignore }

let sweep_mc =
  {
    name = "sweep-mc";
    jobs = 2;
    unit_ = "row";
    block = Gen.block_size Gen.sweep_weights;
    rss_after = 100;
    setup = sweep_setup;
  }

(* ---- gate-mc --------------------------------------------------------- *)

let gate_blocks = 12
let gate_warmup = 8
let gate_trials = 100

let gate_setup ~seed tr =
  Lazy.force hooks;
  let nets =
    Array.append
      [| Generators.iscas_pipeline (); Generators.alu_decoder_stages ~bits:8 |]
      (Array.map
         (fun depths -> Generators.variable_depth_pipeline ~depths ())
         (Gen.gate_chain_pool ~seed))
  in
  let ctxs =
    Array.map
      (fun n -> span tr "engine.ctx_build" (fun () -> Engine.Ctx.of_circuits tech n))
      nets
  in
  let gates =
    Array.map (Array.fold_left (fun acc n -> acc + Netlist.n_gates n) 0) nets
  in
  let calls = Gen.gate_calls ~seed ~blocks:gate_blocks in
  let n = Array.length calls in
  let first = Array.make n None in
  let gate_trials_done = ref 0 and gate_work = ref 0 in
  let run (c : Gen.gate_call) =
    Engine.gate_level_delays ~exact:c.Gen.exact ~jobs:1 ~seed:c.Gen.call_seed
      ctxs.(c.Gen.ctx) ~n:gate_trials
  in
  let check k samples =
    Array.iter
      (fun x -> if not (Float.is_finite x) then fail "call %d: non-finite delay" k)
      samples;
    same_as_first first k (Array.map Int64.bits_of_float samples) ~what:"call"
  in
  let call i =
    let k = i mod n in
    let c = calls.(k) in
    let samples =
      with_gc tr (fun () -> span tr "engine.gate_level_delays" (fun () -> run c))
    in
    span tr "bench.check" (fun () ->
        check k samples;
        if Spans.enabled tr then begin
          gate_trials_done := !gate_trials_done + gate_trials;
          gate_work := !gate_work + (gate_trials * gates.(c.Gen.ctx))
        end);
    gate_trials
  in
  let warmup () =
    for k = 0 to gate_warmup - 1 do
      check k (run calls.(k))
    done
  in
  let layers ~calls:traced ~budget_s =
    let spans = List.filter (fun s -> s.Spans.call_id >= 0) (Spans.spans tr) in
    let trial_ns = Spans.total_ns spans "engine.gate_level_delays" in
    (* Nominal STA of every stage, repeated for the budget. *)
    let sta_ns = Array.make (Array.length nets) 0 in
    let sta_reps = Array.make (Array.length nets) 0 in
    let sta_gate_ns = ref 0 and sta_gates = ref 0 in
    ignore
      (for_budget ~budget_s ~min:(Array.length nets) (fun j ->
           let c = j mod Array.length nets in
           let t0 = Spans.now_ns () in
           span tr "circuit.sta" (fun () ->
               Array.iter (fun net -> ignore (Spv_circuit.Sta.run tech net)) nets.(c));
           let dt = Spans.now_ns () - t0 in
           sta_ns.(c) <- sta_ns.(c) + dt;
           sta_reps.(c) <- sta_reps.(c) + 1;
           sta_gate_ns := !sta_gate_ns + dt;
           sta_gates := !sta_gates + gates.(c)));
    let sta_per_trial c = float_of_int sta_ns.(c) /. float_of_int (max 1 sta_reps.(c)) in
    let sta_budget =
      Array.fold_left
        (fun acc i -> acc +. (float_of_int gate_trials *. sta_per_trial calls.(i mod n).Gen.ctx))
        0.0 traced
    in
    [
      metric "engine.ctx_build_ms" "ms" (mean_ms (Spans.spans tr) "engine.ctx_build");
      metric "engine.gate_trials_per_s" "1/s"
        (float_of_int !gate_trials_done /. sec_of_ns trial_ns);
      metric "engine.ns_per_gate_trial" "ns"
        (float_of_int trial_ns /. float_of_int (max 1 !gate_work));
      metric "engine.alloc_words_per_trial" "words"
        (Spans.counter tr "gc.alloc_words" /. float_of_int (max 1 !gate_trials_done));
      metric "circuit.sta_us_per_gate" "us"
        (float_of_int !sta_gate_ns /. 1e3 /. float_of_int (max 1 !sta_gates));
      metric "engine.trial_overhead_ratio" "ratio" (float_of_int trial_ns /. sta_budget);
    ]
  in
  { warmup; call; rss_kib = self_rss; layers; close = ignore }

let gate_mc =
  {
    name = "gate-mc";
    jobs = 1;
    unit_ = "trial";
    block = Gen.block_size Gen.gate_weights;
    rss_after = 100;
    setup = gate_setup;
  }

(* ---- serve-zipf ------------------------------------------------------ *)

let serve_warmup = 200
let serve_stream_length = 20_000

(* The CLI next to this executable in the dune build tree
   (_build/default/bench/suite/main.exe -> _build/default/bin). *)
let cli_path () =
  Filename.concat
    (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
    (Filename.concat "bin" "spv_cli.exe")

type daemon = { pid : int; to_d : out_channel; from_d : in_channel }

let start_daemon () =
  let cli = cli_path () in
  if not (Sys.file_exists cli) then failwith ("serve daemon not built: " ^ cli);
  let env =
    Array.append [| "SPV_JOBS=1" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"SPV_JOBS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env cli [| cli; "serve" |] env req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  { pid; to_d = Unix.out_channel_of_descr req_w; from_d = Unix.in_channel_of_descr resp_r }

let stop_daemon d =
  (try close_out d.to_d with Sys_error _ -> ());
  (try
     while true do
       ignore (input_line d.from_d)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr d.from_d;
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* Send one request line; return its response lines up to and including
   the terminating done/error line. *)
let round_trip d line =
  output_string d.to_d line;
  output_char d.to_d '\n';
  flush d.to_d;
  let rec read acc =
    let l = input_line d.from_d in
    if contains l "\"kind\":\"row\"" then read (l :: acc) else List.rev (l :: acc)
  in
  read []

let rows_of lines = List.filter (fun l -> contains l "\"kind\":\"row\"") lines

let check_response k lines =
  match List.rev lines with
  | last :: _ when contains last "\"kind\":\"done\"" -> ()
  | last :: _ -> fail "request for template %d failed: %s" k last
  | [] -> fail "request for template %d: no response" k

let serve_requests ~seed =
  let circuit_scale = Hashtbl.create 8 in
  let scale name =
    match Hashtbl.find_opt circuit_scale name with
    | Some v -> v
    | None ->
        let net = Result.get_ok (Grid.builtin_lookup name) in
        let d = Engine.Ctx.delay_distribution (Engine.Ctx.of_circuits tech [| net |]) in
        let v = (Spv_stats.Gaussian.mu d, Spv_stats.Gaussian.sigma d) in
        Hashtbl.replace circuit_scale name v;
        v
  in
  Array.mapi
    (fun r spec ->
      let grid, mode =
        match spec with
        | Gen.Circuit_t { circuit; inter_vth_mv; hier } ->
            let mu, sigma = scale circuit in
            let targets = Gen.spaced_targets ~mu ~sigma ~lo_k:(-1.0) ~hi_k:4.5 ~count:12 in
            ( Gen.serve_circuit_grid ~circuit ~inter_vth_mv ~targets,
              if hier then "hierarchical" else "flat" )
        | Gen.Moments_t m ->
            let mu, sigma = clark_of_grid (Gen.moments_lines m) in
            let targets = Gen.spaced_targets ~mu ~sigma ~lo_k:(-1.0) ~hi_k:4.5 ~count:12 in
            (Gen.serve_moments_grid m ~targets, "flat")
      in
      ( grid,
        Serve.request_line ~request_id:(Printf.sprintf "t%d" r) ~seed:7 ~jobs:1 ~workers:1
          ~mode ~grid () ))
    (Gen.serve_template_specs ~seed)

let hello = Serve.request_line ~request_id:"hello" ~grid:"stages 100,5\ntargets 100\nmethod clark\n" ()

let macro_counts line =
  match Json.parse line with
  | Error _ -> (0, 0)
  | Ok j -> (
      match Json.member "row" j with
      | None -> (0, 0)
      | Some row ->
          let get k = Option.value (Option.bind (Json.member k row) Json.to_num) ~default:0.0 in
          (int_of_float (get "macro_hits"), int_of_float (get "macro_misses")))

let serve_setup ~seed tr =
  Lazy.force hooks;
  let requests = serve_requests ~seed in
  let stream = Gen.serve_stream ~seed ~length:serve_stream_length in
  let at i = stream.(i mod serve_stream_length) in
  let first = Array.make Gen.serve_templates None in
  let d = start_daemon () in
  (match check_response (-1) (round_trip d hello) with
  | () -> ()
  | exception e ->
      stop_daemon d;
      raise e);
  let serve_one k =
    let lines = round_trip d (snd requests.(k)) in
    check_response k lines;
    same_as_first first k (rows_of lines) ~what:"template"
  in
  let call i =
    let k = at (serve_warmup + i) in
    let lines = span tr "cli.request" (fun () -> round_trip d (snd requests.(k))) in
    span tr "bench.check" (fun () ->
        check_response k lines;
        same_as_first first k (rows_of lines) ~what:"template");
    1
  in
  let warmup () =
    for i = 0 to serve_warmup - 1 do
      serve_one (at i)
    done
  in
  (* The same stream in-process through [Serve.handle_line], with the
     circuit lookup wrapped to time it. *)
  let layers ~calls ~budget_s:_ =
    let calls = Array.length calls in
    let e2e =
      Array.map ms_of_ns
        (Spans.durations
           (List.filter (fun s -> s.Spans.call_id >= 0) (Spans.spans tr))
           "cli.request")
    in
    let lookup_ns = ref 0 and parse_ns = ref 0 in
    let timed acc name f =
      let r, dt = time_ns (fun () -> span tr name f) in
      acc := !acc + dt;
      r
    in
    let lookup name = timed lookup_ns "workload.lookup" (fun () -> Grid.builtin_lookup name) in
    let s = Serve.create ~lookup () in
    for i = 0 to serve_warmup - 1 do
      ignore (Serve.handle_line s (snd requests.(at i)))
    done;
    let c = Serve.cache s in
    let h0 = Serve.Cache.hits c and m0 = Serve.Cache.misses c in
    let ev0 = Serve.Cache.evictions c in
    let handle = Array.make calls 0.0 in
    let macro_h = ref 0 and macro_m = ref 0 in
    lookup_ns := 0;
    for i = 0 to calls - 1 do
      let grid, line = requests.(at (serve_warmup + i)) in
      let t0 = Spans.now_ns () in
      let out = span tr "serve.handle_line" (fun () -> Serve.handle_line s line) in
      handle.(i) <- ms_of_ns (Spans.now_ns () - t0);
      ignore (timed parse_ns "workload.grid_parse" (fun () -> Grid.of_string grid));
      List.iter
        (fun l ->
          let h, m = macro_counts l in
          macro_h := !macro_h + h;
          macro_m := !macro_m + m)
        (rows_of out)
    done;
    let hits = Serve.Cache.hits c - h0 and misses = Serve.Cache.misses c - m0 in
    let handle_p50 = Stats.percentile handle 0.5 in
    let per_req x = x /. float_of_int (max 1 calls) in
    [
      metric "serve.handle_p50_ms" "ms" handle_p50;
      metric "serve.handle_p90_ms" "ms" (Stats.percentile handle 0.9);
      metric "cli.transport_p50_ms" "ms" (Stats.percentile e2e 0.5 -. handle_p50);
      metric "serve.cache_hit_ratio" "ratio"
        (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      metric "serve.cache_evictions_per_req" "1/req"
        (per_req (float_of_int (Serve.Cache.evictions c - ev0)));
      metric "circuit.macro_hit_ratio" "ratio"
        (float_of_int !macro_h /. float_of_int (max 1 (!macro_h + !macro_m)));
      metric "workload.grid_parse_ms" "ms" (per_req (ms_of_ns !parse_ns));
      metric "workload.lookup_ms" "ms" (per_req (ms_of_ns !lookup_ns));
    ]
  in
  {
    warmup;
    call;
    rss_kib = (fun () -> vm_hwm_kib (string_of_int d.pid));
    layers;
    close = (fun () -> stop_daemon d);
  }

let serve_zipf =
  {
    name = "serve-zipf";
    jobs = 1;
    unit_ = "request";
    block = 100;
    rss_after = 2000;
    setup = serve_setup;
  }

(* ---- size-design ----------------------------------------------------- *)

let design_blocks = 10
let design_warmup = 8
let size_tech = Spv_experiments.Common.optimisation_tech

type sized = { targets : float array; areas : float array; yield_ : float }

let sized (r : Global_opt.result) =
  {
    targets = r.Global_opt.stage_targets;
    areas = r.Global_opt.stage_areas;
    yield_ = r.Global_opt.pipeline_yield;
  }

let size_setup ~seed tr =
  Lazy.force hooks;
  let ff = Spv_process.Flipflop.default size_tech in
  let min_delay = Hashtbl.create 16 in
  let designs =
    Array.map
      (fun (d : Gen.design) ->
        let nets, keys =
          match d.Gen.net with
          | Gen.Chains depths ->
              ( Generators.variable_depth_pipeline ~depths (),
                Array.map (Printf.sprintf "chain%d") depths )
          | Gen.Alu bits ->
              ( Generators.alu_decoder_stages ~bits,
                Array.init 3 (Printf.sprintf "alu%d.%d" bits) )
        in
        let n_stages = Array.length nets in
        let z =
          Spv_stats.Special.big_phi_inv
            (Spv_core.Yield.per_stage_yield_target ~yield:d.Gen.yield_target ~n_stages)
        in
        let fastest i =
          let key = (keys.(i), z) in
          match Hashtbl.find_opt min_delay key with
          | Some v -> v
          | None ->
              let v = Spv_sizing.Lagrangian.minimum_achievable_delay ~ff size_tech nets.(i) ~z in
              Hashtbl.replace min_delay key v;
              v
        in
        let worst = ref 0.0 in
        for i = 0 to n_stages - 1 do
          worst := Float.max !worst (fastest i)
        done;
        (d, nets, d.Gen.f *. !worst))
      (Gen.design_specs ~seed ~blocks:design_blocks)
  in
  let n = Array.length designs in
  let first = Array.make n None in
  let probes_run = ref 0 and probes_skipped = ref 0 in
  let met = ref 0 and sized_designs = ref 0 in
  let run k =
    let d, nets, t_target = designs.(k) in
    let nets = Array.map Netlist.copy nets in
    let yield_target = d.Gen.yield_target in
    if d.Gen.minimise then Global_opt.minimise_area ~ff size_tech nets ~t_target ~yield_target
    else Global_opt.ensure_yield ~ff size_tech nets ~t_target ~yield_target
  in
  (* Tables II and III (the paper's 4-stage ISCAS pipeline): the
     proposed design must meet the yield target the table is built
     around. *)
  let table scenario =
    let open Spv_experiments.Table2_3 in
    let t = compute scenario in
    if t.proposed.Global_opt.pipeline_yield < t.yield_target then
      fail "Table %s: proposed yield %.4f below target %.2f"
        (if scenario = Ensure_yield then "II" else "III")
        t.proposed.Global_opt.pipeline_yield t.yield_target
  in
  let call i =
    let k = i mod n in
    let st0 = Sens_hook.stats in
    let r0 = st0.Sens_hook.probes_run and s0 = st0.Sens_hook.probes_skipped in
    let r = span tr "sizing.global" (fun () -> run k) in
    span tr "bench.check" (fun () ->
        same_as_first first k (sized r) ~what:"design";
        if Spans.enabled tr then begin
          probes_run := !probes_run + Sens_hook.stats.Sens_hook.probes_run - r0;
          probes_skipped := !probes_skipped + Sens_hook.stats.Sens_hook.probes_skipped - s0;
          incr sized_designs;
          let d, _, _ = designs.(k) in
          if r.Global_opt.pipeline_yield >= d.Gen.yield_target then incr met
        end);
    1
  in
  let warmup () =
    table Spv_experiments.Table2_3.Ensure_yield;
    table Spv_experiments.Table2_3.Minimise_area;
    for k = 0 to design_warmup - 1 do
      same_as_first first k (sized (run k)) ~what:"design"
    done
  in
  let layers ~calls ~budget_s =
    let spans = List.filter (fun s -> s.Spans.call_id >= 0) (Spans.spans tr) in
    let global = Spans.durations spans "sizing.global" in
    let baseline = ref 0 in
    let done_ =
      for_budget ~max:(Array.length global) ~budget_s ~min:(min 12 (Array.length calls))
        (fun j ->
          let d, nets, t_target = designs.(calls.(j) mod n) in
          let t0 = Spans.now_ns () in
          ignore
            (span tr "sizing.baseline" (fun () ->
                 Global_opt.individually_optimised ~ff size_tech
                   (Array.map Netlist.copy nets) ~t_target
                   ~yield_target:d.Gen.yield_target));
          baseline := !baseline + (Spans.now_ns () - t0))
    in
    let global_same = Array.fold_left ( + ) 0 (Array.sub global 0 done_) in
    let per_design x = x /. float_of_int (max 1 !sized_designs) in
    let per_baseline ns = ms_of_ns ns /. float_of_int (max 1 done_) in
    [
      metric "sizing.baseline_ms" "ms" (per_baseline !baseline);
      metric "sizing.global_self_ms" "ms" (per_baseline (global_same - !baseline));
      metric "sizing.probes_run" "count" (per_design (float_of_int !probes_run));
      metric "sizing.probes_skipped" "count" (per_design (float_of_int !probes_skipped));
      metric "sizing.prune_ratio" "ratio"
        (float_of_int !probes_skipped
        /. float_of_int (max 1 (!probes_run + !probes_skipped)));
      metric "sizing.yield_met_frac" "ratio" (per_design (float_of_int !met));
    ]
  in
  { warmup; call; rss_kib = self_rss; layers; close = ignore }

let size_design =
  {
    name = "size-design";
    jobs = 1;
    unit_ = "design";
    block = Array.length Gen.design_strata;
    rss_after = 100;
    setup = size_setup;
  }

(* ---- fuzz-oracle ----------------------------------------------------- *)

let fuzz_blocks = 60
let fuzz_warmup = 8
let fuzz_max_gates = 80

(* Pool cases the oracle reports violations on (found by running every
   pool case through [Fuzz_run.run_one]), left out because the
   benchmark has to run without failures.  All are open findings with a
   large intra-die random Vth sigma (67-75 mV): the Clark and
   quadrature closed forms leave the interval envelope (envelope) or
   disagree with Monte-Carlo (agreement). *)
let fuzz_findings = [ 314428663; 493036771; 140253601 ]

(* The seed's cases: the pool bucketed by stratum (known findings left
   out), each bucket shuffled with the seed, dealt out along the
   stratified schedule. *)
let fuzz_cases ~seed =
  let buckets = Array.make (Array.length Gen.fuzz_weights) [] in
  Array.iter
    (fun gen_seed ->
      if not (List.mem gen_seed fuzz_findings) then begin
        let m = Oracle.materialise { Oracle.gen_seed; max_gates = fuzz_max_gates } in
        let k = Gen.fuzz_stratum ~n_stages:(Array.length m.Oracle.circuits) in
        buckets.(k) <- gen_seed :: buckets.(k)
      end)
    (Gen.fuzz_pool ());
  let st = Gen.state ~seed ~salt:9 in
  let buckets =
    Array.map
      (fun b ->
        let a = Array.of_list (List.rev b) in
        Gen.shuffle st a;
        a)
      buckets
  in
  let next = Array.make (Array.length buckets) 0 in
  Array.map
    (fun k ->
      let b = buckets.(k) in
      let s = b.(next.(k) mod Array.length b) in
      next.(k) <- next.(k) + 1;
      s)
    (Gen.fuzz_schedule ~seed ~blocks:fuzz_blocks)

let fuzz_setup ~seed tr =
  Lazy.force hooks;
  let seeds = fuzz_cases ~seed in
  let n = Array.length seeds in
  let cfg = { Fuzz_run.default_config with Fuzz_run.max_gates = fuzz_max_gates } in
  let macro_table = Spv_circuit.Macro.Table.create () in
  let first = Array.make n None in
  let checks = ref 0 and trials = ref 0 in
  let run i k = fst (Fuzz_run.run_one cfg ~macro_table ~index:i ~gen_seed:seeds.(k)) in
  let check k (t : Fuzz_run.trial) =
    (match t.Fuzz_run.violations with
    | [] -> ()
    | v :: _ ->
        fail "case %d (seed %d): %s violated: %s" k seeds.(k)
          (Oracle.invariant_name v.Oracle.invariant)
          v.Oracle.detail);
    same_as_first first k t.Fuzz_run.checks_run ~what:"case"
  in
  let call i =
    let k = i mod n in
    let t = span tr "robust.run_one" (fun () -> run i k) in
    span tr "bench.check" (fun () ->
        check k t;
        if Spans.enabled tr then begin
          checks := !checks + t.Fuzz_run.checks_run;
          incr trials
        end);
    1
  in
  let warmup () =
    for k = 0 to fuzz_warmup - 1 do
      check k (run k k)
    done
  in
  let layers ~calls:_ ~budget_s =
    let mat = ref 0 and ctx = ref 0 in
    let per_inv = Array.make (List.length Oracle.all_invariants) 0 in
    let timed = time_ns in
    (* The warm-up's cases again at SPV_JOBS=1 and 2 (the workload's
       own setting is 1). *)
    let at_jobs j =
      Unix.putenv "SPV_JOBS" (string_of_int j);
      snd
        (time_ns (fun () ->
             for k = 0 to fuzz_warmup - 1 do
               ignore (run k k)
             done))
    in
    let t1 = at_jobs 1 in
    let t2 = at_jobs 2 in
    Unix.putenv "SPV_JOBS" "1";
    let cases =
      for_budget ~budget_s ~min:10 (fun j ->
          let case = { Oracle.gen_seed = seeds.(j mod n); max_gates = fuzz_max_gates } in
          let m, dt =
            timed (fun () -> span tr "robust.materialise" (fun () -> Oracle.materialise case))
          in
          mat := !mat + dt;
          let c, dt =
            timed (fun () ->
                span tr "engine.ctx_build" (fun () ->
                    Oracle.ctx_of m.Oracle.circuits m.Oracle.process))
          in
          ctx := !ctx + dt;
          List.iteri
            (fun idx inv ->
              let _, dt =
                timed (fun () ->
                    span tr ("robust.check." ^ Oracle.invariant_name inv) (fun () ->
                        Oracle.check_ctx ~tolerances:cfg.Fuzz_run.tolerances
                          ~invariants:[ inv ] ~macro_table c ~seed:cfg.Fuzz_run.check_seed))
              in
              per_inv.(idx) <- per_inv.(idx) + dt)
            Oracle.all_invariants)
    in
    let per_case ns = ms_of_ns ns /. float_of_int cases in
    [
      metric "robust.materialise_ms" "ms" (per_case !mat);
      metric "engine.ctx_build_ms" "ms" (per_case !ctx);
      metric "robust.checks_per_trial" "count"
        (float_of_int !checks /. float_of_int (max 1 !trials));
      metric "par.speedup_jobs2" "ratio" (float_of_int t1 /. float_of_int t2);
    ]
    @ List.mapi
        (fun idx inv ->
          metric ("robust.check_ms." ^ Oracle.invariant_name inv) "ms" (per_case per_inv.(idx)))
        Oracle.all_invariants
  in
  { warmup; call; rss_kib = self_rss; layers; close = ignore }

let fuzz_oracle =
  {
    name = "fuzz-oracle";
    jobs = 1;
    unit_ = "trial";
    block = Gen.block_size Gen.fuzz_weights;
    rss_after = 100;
    setup = fuzz_setup;
  }

let all = [ sweep_mc; gate_mc; serve_zipf; size_design; fuzz_oracle ]
let find name = List.find_opt (fun w -> w.name = name) all
