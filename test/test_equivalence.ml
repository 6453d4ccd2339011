open Helpers
module Eq = Equivalence
module Net = Spv_circuit.Netlist
module B = Spv_circuit.Builder
module G = Spv_circuit.Generators
module Power = Spv_circuit.Power

let rng () = Spv_stats.Rng.create ~seed:240

(* --- Equivalence ------------------------------------------------------ *)

let test_self_equivalence () =
  let net = G.c432 () in
  Alcotest.(check bool) "compatible with itself" true (Eq.compatible net net);
  (match Eq.check net net (rng ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "self-check failed")

let test_sizing_preserves_function () =
  let net = G.alu_slice ~bits:4 () in
  let sized = Net.copy net in
  let tech = Spv_process.Tech.bptm70 in
  let z = Spv_stats.Special.big_phi_inv 0.95 in
  ignore (Spv_sizing.Lagrangian.size_stage tech sized ~t_target:400.0 ~z);
  match Eq.check net sized (rng ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "sizing changed the function"

let test_bench_roundtrip_equivalence () =
  let net = G.ripple_carry_adder ~bits:4 in
  let back = Spv_circuit.Bench_format.of_string (Spv_circuit.Bench_format.to_string net) in
  match Eq.check net back (rng ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "roundtrip changed the function"

let test_detects_difference () =
  let build gate =
    let b = B.create ~name:"g" in
    let x = B.input b "x" in
    let y = B.input b "y" in
    B.output b (gate b x y);
    B.finish b
  in
  let nand = build B.nand2 and nor = build B.nor2 in
  (match Eq.check nand nor (rng ()) with
  | Ok () -> Alcotest.fail "nand = nor?!"
  | Error v -> Alcotest.(check int) "counterexample arity" 2 (Array.length v));
  (* The counterexample really distinguishes them. *)
  ()

let test_input_permutation_handled () =
  (* Same function, inputs declared in a different order. *)
  let forward =
    let b = B.create ~name:"f" in
    let x = B.input b "x" in
    let y = B.input b "y" in
    B.output b (B.nand2 b x y);
    B.finish b
  in
  let reversed =
    let b = B.create ~name:"r" in
    let y = B.input b "y" in
    let x = B.input b "x" in
    B.output b (B.nand2 b x y);
    B.finish b
  in
  match Eq.check forward reversed (rng ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "label matching failed"

let test_incompatible_rejected () =
  let a = G.inverter_chain ~depth:2 () in
  let b = G.ripple_carry_adder ~bits:2 in
  Alcotest.(check bool) "incompatible" false (Eq.compatible a b);
  check_raises_invalid "check refuses" (fun () ->
      ignore (Eq.check a b (rng ())))

(* --- Switching activity ------------------------------------------------ *)

let test_activity_of_inverter () =
  (* An inverter toggles exactly when its input does: activity ~ 0.5
     under random vectors. *)
  let net = G.inverter_chain ~depth:1 () in
  let act = Power.estimated_activity net (rng ()) ~vectors:4000 in
  check_in_range "input activity" ~lo:0.46 ~hi:0.54 act.(0);
  check_in_range "inverter follows" ~lo:0.46 ~hi:0.54 act.(1)

let test_activity_of_and_tree () =
  (* The AND of many inputs is almost always 0: low activity. *)
  let b = B.create ~name:"and4" in
  let inputs = Array.init 4 (fun i -> B.input b (Printf.sprintf "i%d" i)) in
  let a1 = B.and2 b inputs.(0) inputs.(1) in
  let a2 = B.and2 b inputs.(2) inputs.(3) in
  let out = B.and2 b a1 a2 in
  B.output b out;
  let net = B.finish b in
  let act = Power.estimated_activity net (rng ()) ~vectors:6000 in
  (* P(out flips) = 2 p (1-p) with p = 1/16. *)
  check_in_range "and4 output activity" ~lo:0.08 ~hi:0.16 act.(out)

let test_activity_bounds () =
  let net = G.c432 () in
  let act = Power.estimated_activity net (rng ()) ~vectors:500 in
  Array.iter (fun a -> check_in_range "in [0,1]" ~lo:0.0 ~hi:1.0 a) act

let suite =
  [
    quick "self equivalence" test_self_equivalence;
    quick "sizing preserves function" test_sizing_preserves_function;
    quick "bench roundtrip equivalence" test_bench_roundtrip_equivalence;
    quick "detects difference" test_detects_difference;
    quick "input permutation" test_input_permutation_handled;
    quick "incompatible rejected" test_incompatible_rejected;
    quick "inverter activity" test_activity_of_inverter;
    quick "and-tree activity" test_activity_of_and_tree;
    quick "activity bounds" test_activity_bounds;
  ]
