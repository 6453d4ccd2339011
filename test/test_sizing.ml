open Helpers
module L = Spv_sizing.Lagrangian
module Ad = Spv_sizing.Area_delay
module GO = Spv_sizing.Global_opt
module Net = Spv_circuit.Netlist
module G = Spv_circuit.Generators
module Gd = Spv_process.Gate_delay

let tech = Spv_process.Tech.bptm70
let ff = Spv_process.Flipflop.default tech
let z = Spv_stats.Special.big_phi_inv 0.9457

(* --- Lagrangian sizer ------------------------------------------------- *)

let test_relaxed_vs_min_delay () =
  let net = G.c432 () in
  let slow = L.relaxed_delay ~ff tech net ~z in
  let fast = L.minimum_achievable_delay ~ff tech net ~z in
  Alcotest.(check bool) "sizing buys speed" true (fast < 0.9 *. slow);
  (* Both helpers must leave sizes untouched. *)
  Array.iter
    (fun i -> check_float "sizes restored" 1.0 (Net.size net i))
    (Net.gate_ids net)

let test_size_to_feasible_target () =
  let net = G.c432 () in
  let slow = L.relaxed_delay ~ff tech net ~z in
  let fast = L.minimum_achievable_delay ~ff tech net ~z in
  let t_target = fast +. (0.4 *. (slow -. fast)) in
  let r = L.size_stage ~ff tech net ~t_target ~z in
  Alcotest.(check bool) "converged" true r.L.converged;
  Alcotest.(check bool) "meets target" true
    (r.L.stat_delay <= t_target *. 1.005);
  check_close ~rel:1e-9 "area matches netlist" (Net.area net) r.L.area;
  (* Statistical delay field is consistent. *)
  check_close ~rel:1e-9 "stat = mu + z sigma"
    (r.L.achieved.Gd.nominal +. (z *. Gd.total_sigma r.L.achieved))
    r.L.stat_delay

let test_tighter_target_costs_area () =
  let net = G.c432 () in
  let slow = L.relaxed_delay ~ff tech net ~z in
  let fast = L.minimum_achievable_delay ~ff tech net ~z in
  let size_to frac =
    let t_target = fast +. (frac *. (slow -. fast)) in
    (L.size_stage ~ff tech net ~t_target ~z).L.area
  in
  let a_tight = size_to 0.15 in
  let a_mid = size_to 0.5 in
  let a_loose = size_to 0.85 in
  Alcotest.(check bool) "monotone trade-off" true
    (a_tight > a_mid && a_mid > a_loose)

let test_unreachable_target_reports () =
  let net = G.inverter_chain ~depth:6 () in
  let r = L.size_stage ~ff tech net ~t_target:1.0 ~z in
  Alcotest.(check bool) "not converged" false r.L.converged;
  Alcotest.(check bool) "still positive delay" true (r.L.stat_delay > 1.0)

let test_sizes_respect_bounds () =
  let options = { L.default_options with L.min_size = 1.0; max_size = 4.0 } in
  let net = G.c432 () in
  ignore (L.size_stage ~options ~ff tech net ~t_target:400.0 ~z);
  Array.iter
    (fun i ->
      check_in_range "within bounds" ~lo:1.0 ~hi:4.0 (Net.size net i))
    (Net.gate_ids net)

let test_statistical_delay_smaller_z () =
  let net = G.c432 () in
  let d0 = L.statistical_delay ~ff tech net ~z:0.0 in
  let d2 = L.statistical_delay ~ff tech net ~z:2.0 in
  Alcotest.(check bool) "z adds guardband" true (d2 > d0)

(* --- Area-delay curves ------------------------------------------------ *)

let test_curve_monotone () =
  let net = G.c432 () in
  let pts = Ad.curve_points ~ff ~n_points:7 tech net ~z in
  Alcotest.(check bool) "at least 4 points" true (Array.length pts >= 4);
  for i = 1 to Array.length pts - 1 do
    Alcotest.(check bool) "delay increases" true
      (pts.(i).Spv_core.Balance.delay > pts.(i - 1).Spv_core.Balance.delay);
    Alcotest.(check bool) "area decreases" true
      (pts.(i).Spv_core.Balance.area < pts.(i - 1).Spv_core.Balance.area)
  done

let test_curve_restores_sizes () =
  let net = G.c432 () in
  let gate0 = (Net.gate_ids net).(0) in
  Net.set_size net gate0 2.5;
  ignore (Ad.curve_points ~ff ~n_points:5 tech net ~z);
  check_float "sizes restored" 2.5 (Net.size net gate0)

let test_normalised () =
  let net = G.c432 () in
  let pts = Ad.curve_points ~ff ~n_points:5 tech net ~z in
  let norm = Ad.normalised pts in
  let last_d, last_a = norm.(Array.length norm - 1) in
  check_float "slowest normalised to 1 (delay)" 1.0 last_d;
  check_float "slowest normalised to 1 (area)" 1.0 last_a

(* --- Sizing is a function of the stage's topology ------------------------ *)

(* [size_stage] starts from minimum sizes, so neither its report nor the
   sizes it leaves may depend on the sizes it was handed; the fastest
   delay and the area-delay curve, which the Fig. 9 loop computes once
   per stage and reuses, rest on this. *)
let bits = Int64.bits_of_float

let bits_of_gd (g : Gd.t) =
  List.map bits [ g.Gd.nominal; g.Gd.sigma_inter; g.Gd.sigma_sys; g.Gd.sigma_rand ]

let sizes_bits net = Array.map bits (Net.sizes_snapshot net)

let randomise_sizes net ~seed =
  let st = Random.State.make [| seed |] in
  Array.iter
    (fun i -> Net.set_size net i (1.0 +. Random.State.float st 15.0))
    (Net.gate_ids net)

let invariance_stages () =
  [
    ("chain", (G.variable_depth_pipeline ~depths:[| 8 |] ()).(0));
    ("alu-decoder", (G.alu_decoder_stages ~bits:4).(1));
    ("c432", G.c432 ());
  ]

let test_size_stage_ignores_start () =
  List.iteri
    (fun k (name, net) ->
      let slow = L.relaxed_delay ~ff tech net ~z in
      let fast = L.minimum_achievable_delay ~ff tech net ~z in
      let t_target = fast +. (0.4 *. (slow -. fast)) in
      let from_min = Net.copy net and from_random = Net.copy net in
      randomise_sizes from_random ~seed:(17 + k);
      let a = L.size_stage ~ff tech from_min ~t_target ~z in
      let b = L.size_stage ~ff tech from_random ~t_target ~z in
      let same what x y = Alcotest.(check bool) (name ^ ": " ^ what) true (x = y) in
      same "stat_delay" (bits a.L.stat_delay) (bits b.L.stat_delay);
      same "area" (bits a.L.area) (bits b.L.area);
      same "lambda" (bits a.L.lambda) (bits b.L.lambda);
      same "iterations" a.L.iterations b.L.iterations;
      same "achieved" (bits_of_gd a.L.achieved) (bits_of_gd b.L.achieved);
      same "final sizes" (sizes_bits from_min) (sizes_bits from_random))
    (invariance_stages ())

let test_profiles_restore_sizes () =
  List.iteri
    (fun k (name, net) ->
      randomise_sizes net ~seed:(41 + k);
      let before = sizes_bits net in
      ignore (L.minimum_achievable_delay ~ff tech net ~z);
      Alcotest.(check bool) (name ^ ": fastest delay restores sizes") true
        (sizes_bits net = before);
      ignore (Ad.curve_points ~ff ~n_points:5 tech net ~z);
      Alcotest.(check bool) (name ^ ": curve restores sizes") true
        (sizes_bits net = before))
    (invariance_stages ())

(* --- Global optimisation ---------------------------------------------- *)

let pipeline_fixture () =
  (* A small 3-stage pipeline keeps global-opt tests fast. *)
  [|
    G.random_logic ~name:"sA" ~inputs:12 ~gates:120 ~depth:14 ~seed:1;
    G.random_logic ~name:"sB" ~inputs:12 ~gates:100 ~depth:12 ~seed:2;
    G.random_logic ~name:"sC" ~inputs:12 ~gates:80 ~depth:12 ~seed:3;
  |]

let test_individually_optimised () =
  let nets = pipeline_fixture () in
  let fast = L.minimum_achievable_delay ~ff tech nets.(0) ~z in
  let r =
    GO.individually_optimised ~ff tech nets ~t_target:(fast *. 1.15)
      ~yield_target:0.8
  in
  Alcotest.(check int) "three stages" 3 (Array.length r.GO.nets);
  check_close ~rel:1e-9 "total is the sum"
    (Array.fold_left ( +. ) 0.0 r.GO.stage_areas)
    r.GO.total_area;
  (* Inputs are untouched (we size copies). *)
  Array.iter
    (fun net ->
      Array.iter (fun i -> check_float "input preserved" 1.0 (Net.size net i))
        (Net.gate_ids net))
    nets

let test_ensure_yield_improves () =
  let nets = pipeline_fixture () in
  let fast = L.minimum_achievable_delay ~ff tech nets.(0) ~z in
  let t_target = fast *. 0.99 in
  let base = GO.individually_optimised ~ff tech nets ~t_target ~yield_target:0.8 in
  let ens = GO.ensure_yield ~ff tech nets ~t_target ~yield_target:0.8 in
  Alcotest.(check bool) "yield does not degrade" true
    (ens.GO.pipeline_yield >= base.GO.pipeline_yield -. 1e-9)

let test_minimise_area_keeps_yield () =
  let nets = pipeline_fixture () in
  let fast = L.minimum_achievable_delay ~ff tech nets.(0) ~z in
  let t_target = fast *. 1.1 in
  let base = GO.individually_optimised ~ff tech nets ~t_target ~yield_target:0.8 in
  let mini = GO.minimise_area ~ff tech nets ~t_target ~yield_target:0.8 in
  Alcotest.(check bool) "area not larger" true
    (mini.GO.total_area <= base.GO.total_area +. 1e-6);
  Alcotest.(check bool) "yield at target" true
    (mini.GO.pipeline_yield >= 0.8 -. 1e-9
    || mini.GO.pipeline_yield >= base.GO.pipeline_yield -. 1e-9)

(* One digest over the exact bits of the Fig. 9 optimiser's results on
   two pipelines, both operations and two yield targets, pinned before
   the loop stopped recomputing each stage's fastest delay and
   area-delay model. *)
let fig9_digest () =
  let tech = Spv_experiments.Common.optimisation_tech in
  let ff = Spv_process.Flipflop.default tech in
  let b = Buffer.create 4096 in
  let add_float x = Buffer.add_string b (Int64.to_string (bits x) ^ ";") in
  let add_floats = Array.iter add_float in
  List.iter
    (fun nets ->
      List.iter
        (fun yield_target ->
          let z =
            Spv_stats.Special.big_phi_inv
              (Spv_core.Yield.per_stage_yield_target ~yield:yield_target
                 ~n_stages:(Array.length nets))
          in
          let fastest =
            Array.fold_left
              (fun acc net -> Float.max acc (L.minimum_achievable_delay ~ff tech net ~z))
              0.0 nets
          in
          (* Below the slowest stage's fastest delay the baseline misses
             the yield target and the ensure loop has to tighten; 5 %
             above it the area loop has slack to relax. *)
          List.iter
            (fun (op, f) ->
              let r = op ~t_target:(f *. fastest) in
              add_floats r.GO.stage_targets;
              add_floats r.GO.stage_areas;
              add_float r.GO.pipeline_yield;
              Array.iter (fun net -> add_floats (Net.sizes_snapshot net)) r.GO.nets;
              Array.iter (fun s -> Buffer.add_string b (string_of_int s ^ ",")) r.GO.order;
              Buffer.add_char b '\n')
            [
              ((fun ~t_target -> GO.ensure_yield ~ff tech nets ~t_target ~yield_target), 0.97);
              ((fun ~t_target -> GO.minimise_area ~ff tech nets ~t_target ~yield_target), 1.05);
            ])
        [ 0.8; 0.9 ])
    [ G.variable_depth_pipeline ~depths:[| 4; 8; 12 |] (); G.alu_decoder_stages ~bits:4 ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_fig9_digest () =
  Alcotest.(check string) "Fig. 9 results digest" "6b8fd40f439f40028f49fecbf1581104"
    (fig9_digest ())

let suite =
  [
    quick "relaxed vs min delay" test_relaxed_vs_min_delay;
    quick "size to feasible target" test_size_to_feasible_target;
    quick "tighter target costs area" test_tighter_target_costs_area;
    quick "unreachable target" test_unreachable_target_reports;
    quick "size bounds respected" test_sizes_respect_bounds;
    quick "z guardband" test_statistical_delay_smaller_z;
    quick "curve monotone" test_curve_monotone;
    quick "curve restores sizes" test_curve_restores_sizes;
    quick "curve normalised" test_normalised;
    quick "size_stage ignores starting sizes" test_size_stage_ignores_start;
    quick "profiles restore sizes" test_profiles_restore_sizes;
    slow "individually optimised" test_individually_optimised;
    slow "ensure_yield improves" test_ensure_yield_improves;
    slow "minimise_area keeps yield" test_minimise_area_keeps_yield;
    slow "Fig. 9 golden digest" test_fig9_digest;
  ]
