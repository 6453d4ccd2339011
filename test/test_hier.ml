(* Hierarchical SSTA under test here:

   1. Partition soundness: level bands cover every gate exactly once
      and are a pure function of the netlist structure.

   2. Fidelity: a single-block macro is bit-identical to the
      Block_ssta analysis it wraps, and the gate-level samplers of a
      hierarchical context are bit-identical to the flat ones (macros
      change the closed-form stage model, never the sampled netlists).

   3. Memoisation honesty: the table's hit/miss counters equal the
      distinct (block, process) pairs demanded, an in-place resize
      refreshed through [refresh_block] re-characterises exactly one
      block, and the closed-form flat-vs-hier gap never exceeds the
      reported [hier_bound].  *)

open Helpers
module Engine = Spv_engine.Engine
module Macro = Spv_circuit.Macro
module Netlist = Spv_circuit.Netlist
module Block_ssta = Spv_circuit.Block_ssta
module Gen = Spv_circuit.Generators
module Gd = Spv_process.Gate_delay
module G = Spv_stats.Gaussian
module Sweep = Spv_workload.Sweep
module Grid = Spv_workload.Grid

let tech = Spv_process.Tech.bptm70
let bits = Int64.bits_of_float

let check_bits name a b = Alcotest.(check int64) name (bits a) (bits b)

let check_gd name (a : Gd.t) (b : Gd.t) =
  check_bits (name ^ ": nominal") a.Gd.nominal b.Gd.nominal;
  check_bits (name ^ ": sigma_inter") a.Gd.sigma_inter b.Gd.sigma_inter;
  check_bits (name ^ ": sigma_sys") a.Gd.sigma_sys b.Gd.sigma_sys;
  check_bits (name ^ ": sigma_rand") a.Gd.sigma_rand b.Gd.sigma_rand

let big_net ~seed = Gen.random_logic ~name:"rnd" ~inputs:8 ~gates:600 ~depth:24 ~seed

(* ---- partition ------------------------------------------------------ *)

let test_partition_covers_once () =
  let net = big_net ~seed:7 in
  let blocks = Macro.partition ~target_gates:100 net in
  Alcotest.(check bool) "several bands" true (Array.length blocks > 1);
  let seen = Hashtbl.create 997 in
  Array.iter
    (fun b ->
      Array.iter
        (fun g ->
          if Hashtbl.mem seen g then
            Alcotest.failf "gate %d appears in two bands" g;
          Hashtbl.add seen g ())
        b.Macro.b_gates)
    blocks;
  Alcotest.(check int) "every gate banded" (Netlist.n_gates net)
    (Hashtbl.length seen)

let test_partition_deterministic () =
  let net = big_net ~seed:9 in
  let a = Macro.partition ~target_gates:100 net in
  let b = Macro.partition ~target_gates:100 net in
  Alcotest.(check int) "band count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i ba ->
      let bb = b.(i) in
      Alcotest.(check (array int))
        (Printf.sprintf "band %d gates" i)
        ba.Macro.b_gates bb.Macro.b_gates;
      Alcotest.(check int64)
        (Printf.sprintf "band %d sub-netlist hash" i)
        (Macro.hash ba.Macro.b_net) (Macro.hash bb.Macro.b_net))
    a

(* ---- fidelity ------------------------------------------------------- *)

(* One macro over the whole netlist is exactly the Block_ssta stage
   analysis: [characterise] keeps its output form, and a singleton
   series fold adds nothing. *)
let test_single_macro_is_block_ssta () =
  let net = Gen.random_logic ~name:"s" ~inputs:6 ~gates:80 ~depth:8 ~seed:3 in
  let m = Macro.characterise tech net in
  Alcotest.(check int) "macro covers all gates" (Netlist.n_gates net)
    m.Macro.n_gates;
  check_gd "singleton series == Block_ssta stage_delay"
    (Macro.stage_delay [| m |])
    (Block_ssta.stage_delay tech net)

(* Macros replace the closed-form stage model only; the Monte-Carlo
   samplers re-run STA on the original netlists, so gate-level draws
   from a hierarchical context are bit-identical to the flat ones. *)
let test_hier_gate_mc_matches_flat () =
  let net = Gen.random_logic ~name:"m" ~inputs:6 ~gates:120 ~depth:10 ~seed:5 in
  let flat = Engine.Ctx.of_circuits tech [| net |] in
  let hier =
    Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~block_gates:40 tech
      [| net |]
  in
  Alcotest.(check bool) "context really banded" true
    (Engine.Ctx.n_blocks hier 0 > 1);
  let a = Engine.gate_level_delays ~seed:7 flat ~n:64 in
  let b = Engine.gate_level_delays ~seed:7 hier ~n:64 in
  Alcotest.(check int) "sample counts" (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "draw %d" i) x b.(i)) a

(* ---- memoisation ---------------------------------------------------- *)

let test_memo_counts_block_process_pairs () =
  let net = big_net ~seed:11 in
  let table = Macro.Table.create () in
  let build tech =
    Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~macro_table:table
      ~block_gates:100 tech [| net |]
  in
  let ctx = build tech in
  let nb = Engine.Ctx.n_blocks ctx 0 in
  Alcotest.(check bool) "several blocks" true (nb >= 2);
  Alcotest.(check int) "first build characterises every block" nb
    (Macro.Table.misses table);
  Alcotest.(check int) "first build hits nothing" 0 (Macro.Table.hits table);
  let _same = build tech in
  Alcotest.(check int) "same process: all hits" nb (Macro.Table.hits table);
  Alcotest.(check int) "same process: no new misses" nb
    (Macro.Table.misses table);
  let overridden = Spv_process.Tech.with_inter_vth tech ~sigma_mv:55.0 in
  let _o = build overridden in
  Alcotest.(check int) "override re-characterises every block" (2 * nb)
    (Macro.Table.misses table);
  let _back = build tech in
  Alcotest.(check int) "original process still cached" (2 * nb)
    (Macro.Table.hits table);
  Alcotest.(check int) "misses == distinct (block, process) pairs" (2 * nb)
    (Macro.Table.misses table)

let test_refresh_block_recharacterises_one () =
  let net = Gen.random_logic ~name:"r" ~inputs:6 ~gates:240 ~depth:12 ~seed:5 in
  let table = Macro.Table.create () in
  let ctx =
    Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~macro_table:table
      ~block_gates:60 tech [| net |]
  in
  let nb = Engine.Ctx.n_blocks ctx 0 in
  Alcotest.(check bool) "several blocks" true (nb >= 2);
  let blocks = Macro.partition ~target_gates:60 net in
  let g = blocks.(1).Macro.b_gates.(0) in
  Netlist.set_size net g (Netlist.size net g *. 2.0);
  Macro.Table.reset_counters table;
  let refreshed = Engine.Ctx.refresh_block ctx ~stage:0 ~block:1 in
  Alcotest.(check int) "exactly one block re-characterised" 1
    (Macro.Table.misses table);
  Alcotest.(check int) "every other block hits" (nb - 1)
    (Macro.Table.hits table);
  let scratch =
    Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~block_gates:60 tech
      [| net |]
  in
  let dr = Engine.Ctx.delay_distribution refreshed in
  let ds = Engine.Ctx.delay_distribution scratch in
  check_bits "refreshed mu == scratch mu" (G.mu dr) (G.mu ds);
  check_bits "refreshed sigma == scratch sigma" (G.sigma dr) (G.sigma ds)

let test_refresh_block_rejects_wrong_block () =
  let net = Gen.random_logic ~name:"w" ~inputs:6 ~gates:240 ~depth:12 ~seed:6 in
  let ctx =
    Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~block_gates:60 tech
      [| net |]
  in
  Alcotest.(check bool) "several blocks" true (Engine.Ctx.n_blocks ctx 0 >= 2);
  let blocks = Macro.partition ~target_gates:60 net in
  let g = blocks.(0).Macro.b_gates.(0) in
  Netlist.set_size net g (Netlist.size net g *. 2.0);
  check_raises_invalid "naming an unchanged block is refused" (fun () ->
      ignore (Engine.Ctx.refresh_block ctx ~stage:0 ~block:1))

(* Swapping the stage order re-keys nothing: every block of both
   stages is served from the table (a stage-level hit counts one hit
   per block it reuses), and the swapped context's per-stage models
   really are the swapped originals. *)
let test_swap_stage_order_hits_cache () =
  let a = Gen.random_logic ~name:"sa" ~inputs:5 ~gates:80 ~depth:8 ~seed:31 in
  let b = Gen.random_logic ~name:"sb" ~inputs:5 ~gates:90 ~depth:9 ~seed:32 in
  let table = Macro.Table.create () in
  let build nets =
    Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~macro_table:table
      ~block_gates:30 tech nets
  in
  let c1 = build [| a; b |] in
  let total = Engine.Ctx.n_blocks c1 0 + Engine.Ctx.n_blocks c1 1 in
  Alcotest.(check int) "cold build misses every block" total
    (Macro.Table.misses table);
  Alcotest.(check int) "cold build hits nothing" 0 (Macro.Table.hits table);
  Macro.Table.reset_counters table;
  Alcotest.(check int) "reset clears hits" 0 (Macro.Table.hits table);
  Alcotest.(check int) "reset clears misses" 0 (Macro.Table.misses table);
  let c2 = build [| b; a |] in
  Alcotest.(check int) "swapped stages: every block hits" total
    (Macro.Table.hits table);
  Alcotest.(check int) "swapped stages: nothing re-characterised" 0
    (Macro.Table.misses table);
  check_gd "stage 0 model follows the swap"
    (Engine.Ctx.stage_delay_model c1 0)
    (Engine.Ctx.stage_delay_model c2 1);
  check_gd "stage 1 model follows the swap"
    (Engine.Ctx.stage_delay_model c1 1)
    (Engine.Ctx.stage_delay_model c2 0)

(* Minimal-block edge: a single-gate stage is one band of one gate.
   The counters still behave (one miss cold, one hit warm), and
   [refresh_block ~block:0] degenerates to a whole-stage refresh with
   no other band to hit. *)
let test_single_gate_stage_counters_and_refresh () =
  let net = Gen.inverter_chain ~name:"one" ~depth:1 () in
  let table = Macro.Table.create () in
  let build () =
    Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~macro_table:table tech
      [| net |]
  in
  let ctx = build () in
  Alcotest.(check int) "single band" 1 (Engine.Ctx.n_blocks ctx 0);
  Alcotest.(check int) "cold build: one miss" 1 (Macro.Table.misses table);
  Alcotest.(check int) "cold build: no hits" 0 (Macro.Table.hits table);
  let (_ : Engine.Ctx.t) = build () in
  Alcotest.(check int) "warm build: one hit" 1 (Macro.Table.hits table);
  Alcotest.(check int) "warm build: no new miss" 1 (Macro.Table.misses table);
  let g = (Netlist.gate_ids net).(0) in
  Netlist.set_size net g (Netlist.size net g *. 1.5);
  Macro.Table.reset_counters table;
  let refreshed = Engine.Ctx.refresh_block ctx ~stage:0 ~block:0 in
  Alcotest.(check int) "refresh re-characterises the only block" 1
    (Macro.Table.misses table);
  Alcotest.(check int) "no other band to hit" 0 (Macro.Table.hits table);
  let scratch = Engine.Ctx.of_circuits ~mode:Engine.Hierarchical tech [| net |] in
  check_bits "refreshed mu == scratch mu"
    (G.mu (Engine.Ctx.delay_distribution refreshed))
    (G.mu (Engine.Ctx.delay_distribution scratch));
  check_bits "refreshed sigma == scratch sigma"
    (G.sigma (Engine.Ctx.delay_distribution refreshed))
    (G.sigma (Engine.Ctx.delay_distribution scratch))

(* ---- error bound ---------------------------------------------------- *)

let test_closed_forms_within_bound () =
  let net = Gen.random_logic ~name:"b" ~inputs:6 ~gates:150 ~depth:12 ~seed:8 in
  let flat = Engine.Ctx.of_circuits tech [| net |] in
  let hier =
    Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~block_gates:50 tech
      [| net |]
  in
  let g = Engine.Ctx.delay_distribution flat in
  let targets =
    [|
      G.mu g -. (2.0 *. G.sigma g); G.mu g; G.mu g +. (2.0 *. G.sigma g);
    |]
  in
  List.iter
    (fun method_ ->
      Array.iter
        (fun t_target ->
          let f = Engine.yield ~method_ flat ~t_target in
          let h = Engine.yield ~method_ hier ~t_target in
          Alcotest.(check bool)
            (Engine.method_name method_ ^ ": flat estimate carries no bound")
            true
            (f.Engine.hier_bound = None);
          match h.Engine.hier_bound with
          | None ->
              Alcotest.failf "%s: hierarchical estimate lost its bound"
                (Engine.method_name method_)
          | Some b ->
              let gap = Float.abs (f.Engine.value -. h.Engine.value) in
              if gap > b +. 1e-12 then
                Alcotest.failf "%s at T=%g: gap %.17g exceeds bound %.17g"
                  (Engine.method_name method_) t_target gap b)
        targets)
    [ Engine.Analytic_clark; Engine.Exact_independent; Engine.Quadrature ];
  let fm = Engine.delay_mean ~method_:Engine.Analytic_clark flat in
  let hm = Engine.delay_mean ~method_:Engine.Analytic_clark hier in
  match hm.Engine.hier_bound with
  | None -> Alcotest.fail "mean estimate lost its bound"
  | Some b ->
      let gap = Float.abs (fm.Engine.value -. hm.Engine.value) in
      if gap > b +. 1e-12 then
        Alcotest.failf "mean gap %.17g exceeds bound %.17g" gap b

(* ---- sweeps --------------------------------------------------------- *)

let test_hier_sweep_jobs_identity () =
  let grid = Grid.smoke () in
  let r1 = Sweep.run ~mode:Engine.Hierarchical ~jobs:1 grid in
  let r3 = Sweep.run ~mode:Engine.Hierarchical ~jobs:3 grid in
  Alcotest.(check string) "hier sweep byte-identical across jobs"
    (Sweep.to_jsonl r1) (Sweep.to_jsonl r3);
  (* circuit rows carry a bound and context-build counters; moments
     rows never touch the table *)
  Array.iter
    (fun row ->
      match row.Sweep.estimate.Engine.hier_bound with
      | Some _ ->
          Alcotest.(check bool) "circuit row records characterisation" true
            (row.Sweep.macro_misses > 0 || row.Sweep.macro_hits > 0)
      | None ->
          Alcotest.(check int) "moments row: no hits" 0 row.Sweep.macro_hits;
          Alcotest.(check int) "moments row: no misses" 0
            row.Sweep.macro_misses)
    r1.Sweep.rows

let suite =
  [
    quick "partition covers every gate once" test_partition_covers_once;
    quick "partition deterministic" test_partition_deterministic;
    quick "single macro == Block_ssta" test_single_macro_is_block_ssta;
    quick "hier gate-level MC == flat" test_hier_gate_mc_matches_flat;
    quick "memo misses == (block, process) pairs"
      test_memo_counts_block_process_pairs;
    quick "refresh_block re-characterises one block"
      test_refresh_block_recharacterises_one;
    quick "refresh_block rejects wrong block"
      test_refresh_block_rejects_wrong_block;
    quick "swap-stage build is all cache hits" test_swap_stage_order_hits_cache;
    quick "single-gate stage: counters and refresh"
      test_single_gate_stage_counters_and_refresh;
    quick "closed forms within hier bound" test_closed_forms_within_bound;
    slow "hier sweep jobs byte-identity" test_hier_sweep_jobs_identity;
  ]
