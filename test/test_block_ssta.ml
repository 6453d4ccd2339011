open Helpers
module Bs = Spv_circuit.Block_ssta
module Can = Spv_circuit.Canonical
module G = Spv_circuit.Generators
module Gd = Spv_process.Gate_delay

let tech = Spv_process.Tech.bptm70
let ff = Spv_process.Flipflop.default tech

(* --- Canonical forms --------------------------------------------------- *)

let d1 = Gd.make ~nominal:10.0 ~sigma_inter:1.0 ~sigma_sys:0.5 ~sigma_rand:0.3
let d2 = Gd.make ~nominal:12.0 ~sigma_inter:0.8 ~sigma_sys:0.2 ~sigma_rand:0.6

let test_canonical_roundtrip () =
  let c = Can.of_gate_delay d1 in
  let back = Can.to_gate_delay c in
  check_close ~rel:1e-12 "nominal" d1.Gd.nominal back.Gd.nominal;
  check_close ~rel:1e-12 "total sigma" (Gd.total_sigma d1) (Can.sigma c)

let test_canonical_add () =
  let s = Can.add (Can.of_gate_delay d1) (Can.of_gate_delay d2) in
  let expected = Gd.add d1 d2 in
  check_close ~rel:1e-12 "nominal" expected.Gd.nominal (Can.mean s);
  check_close ~rel:1e-12 "sigma" (Gd.total_sigma expected) (Can.sigma s)

let test_canonical_max_moments_match_clark () =
  let a = Can.of_gate_delay d1 and b = Can.of_gate_delay d2 in
  let rho = Can.correlation a b in
  let clark =
    Spv_core.Clark.max2_moments (Can.to_gaussian a) (Can.to_gaussian b) ~rho
  in
  let m = Can.max a b in
  check_close ~rel:1e-9 "mean" clark.Spv_core.Clark.mean (Can.mean m);
  check_close ~rel:1e-6 "variance" clark.Spv_core.Clark.variance (Can.variance m)

let test_canonical_max_dominated () =
  let a = Can.deterministic 100.0 in
  let b = Can.of_gate_delay d1 in
  let m = Can.max a b in
  check_close ~rel:1e-6 "dominant wins" 100.0 (Can.mean m)

let test_canonical_max_keeps_shared_correlation () =
  (* The max of two forms with identical shared parts keeps them. *)
  let a = { Can.nominal = 10.0; s_inter = 2.0; s_sys = 0.0; s_rand = 1.0 } in
  let b = { Can.nominal = 10.5; s_inter = 2.0; s_sys = 0.0; s_rand = 1.0 } in
  let m = Can.max a b in
  check_close ~rel:1e-9 "inter preserved" 2.0 m.Can.s_inter

let test_tightness () =
  let a = Can.of_gate_delay d1 and b = Can.of_gate_delay d2 in
  let t = Can.tightness a b in
  check_in_range "probability" ~lo:0.0 ~hi:1.0 t;
  (* d2 is slower on average, so a dominates with < 50%. *)
  Alcotest.(check bool) "slower wins more" true (t < 0.5);
  check_close ~rel:1e-9 "complement" (1.0 -. t) (Can.tightness b a)

(* --- Block SSTA --------------------------------------------------------- *)

let test_single_path_equals_path_based () =
  let net = G.inverter_chain ~depth:10 () in
  let path, block = Bs.compare_with_path_based ~ff tech net in
  check_close ~rel:1e-9 "mu" (Spv_stats.Gaussian.mu path) (Spv_stats.Gaussian.mu block);
  check_close ~rel:1e-9 "sigma" (Spv_stats.Gaussian.sigma path)
    (Spv_stats.Gaussian.sigma block)

let test_multipath_mean_dominates () =
  let net = G.c432 () in
  let path, block = Bs.compare_with_path_based ~ff tech net in
  Alcotest.(check bool) "block mean >= path mean" true
    (Spv_stats.Gaussian.mu block >= Spv_stats.Gaussian.mu path)

let test_block_close_to_mc () =
  let net = G.c432 () in
  let _, block = Bs.compare_with_path_based ~ff tech net in
  let mc =
    Spv_engine.Engine.(
      gate_level_delays ~seed:170 (Ctx.of_circuits ~ff tech [| net |]) ~n:6000)
  in
  let mc_mean = Spv_stats.Descriptive.mean mc in
  check_in_range "block mean within 1% of MC" ~lo:(0.99 *. mc_mean)
    ~hi:(1.01 *. mc_mean)
    (Spv_stats.Gaussian.mu block);
  let mc_std = Spv_stats.Descriptive.std mc in
  check_in_range "block sigma within 5% of MC" ~lo:(0.95 *. mc_std)
    ~hi:(1.05 *. mc_std)
    (Spv_stats.Gaussian.sigma block)

let test_nominal_matches_sta_without_variation () =
  let t0 = Spv_process.Tech.no_variation tech in
  let net = G.alu_slice ~bits:4 () in
  let r = Bs.run t0 net in
  let sta = Spv_circuit.Sta.run t0 net in
  check_close ~rel:1e-9 "deterministic max" sta.Spv_circuit.Sta.delay
    (Can.mean r.Bs.output);
  check_float ~eps:1e-9 "no spread" 0.0 (Can.sigma r.Bs.output)

let test_criticality_sums () =
  let net = G.c432 () in
  let r = Bs.run tech net in
  (* Primary-input criticalities account for all mass that reached the
     inputs; each lies in [0, 1+eps] and the critical path's nodes
     carry substantial weight. *)
  Array.iter
    (fun c -> check_in_range "bounded" ~lo:0.0 ~hi:1.0001 c)
    r.Bs.criticality;
  let sta = Spv_circuit.Sta.run tech net in
  let on_path =
    List.fold_left
      (fun acc i -> acc +. r.Bs.criticality.(i))
      0.0 sta.Spv_circuit.Sta.critical_path
  in
  Alcotest.(check bool) "deterministic critical path carries weight" true
    (on_path /. float_of_int (List.length sta.Spv_circuit.Sta.critical_path)
    > 0.2)

let test_stage_delay_with_ff () =
  let net = G.inverter_chain ~depth:6 () in
  let without = Bs.stage_delay tech net in
  let with_ff = Bs.stage_delay ~ff tech net in
  check_close ~rel:1e-9 "ff adds overhead"
    (without.Gd.nominal +. Spv_process.Flipflop.nominal_overhead ff)
    with_ff.Gd.nominal

let test_stage_of_circuit_block () =
  let net = G.c432 () in
  let s_path = Spv_core.Stage.of_circuit ~ff ~timing:Spv_core.Stage.Path_based tech net in
  let s_block = Spv_core.Stage.of_circuit ~ff ~timing:Spv_core.Stage.Block_based tech net in
  Alcotest.(check bool) "block mean not below path" true
    (Spv_core.Stage.mu s_block >= Spv_core.Stage.mu s_path)

let suite =
  [
    quick "canonical roundtrip" test_canonical_roundtrip;
    quick "canonical add" test_canonical_add;
    quick "canonical max matches Clark" test_canonical_max_moments_match_clark;
    quick "canonical max dominated" test_canonical_max_dominated;
    quick "max keeps shared sensitivities" test_canonical_max_keeps_shared_correlation;
    quick "tightness" test_tightness;
    quick "single path equals path-based" test_single_path_equals_path_based;
    quick "multipath mean dominates" test_multipath_mean_dominates;
    slow "block close to MC" test_block_close_to_mc;
    quick "deterministic corner" test_nominal_matches_sta_without_variation;
    quick "criticality bounded" test_criticality_sums;
    quick "stage delay with ff" test_stage_delay_with_ff;
    quick "Stage.of_circuit block mode" test_stage_of_circuit_block;
  ]
