open Helpers
module G = Spv_circuit.Generators
module Net = Spv_circuit.Netlist
module Topo = Spv_circuit.Topo

let test_inverter_chain () =
  let net = G.inverter_chain ~depth:7 () in
  Alcotest.(check int) "gates" 7 (Net.n_gates net);
  Alcotest.(check int) "depth" 7 (Topo.depth net);
  (* Functionally: odd chain inverts. *)
  let v = Net.eval net ~inputs:[| true |] in
  Alcotest.(check bool) "odd chain inverts" false v.(7);
  check_raises_invalid "bad depth" (fun () -> ignore (G.inverter_chain ~depth:0 ()))

let test_chain_pipeline () =
  let nets = G.inverter_chain_pipeline ~stages:5 ~depth:3 () in
  Alcotest.(check int) "stages" 5 (Array.length nets);
  Array.iter (fun n -> Alcotest.(check int) "depth" 3 (Topo.depth n)) nets

let test_variable_depths () =
  let nets = G.variable_depth_pipeline ~depths:[| 2; 4; 6 |] () in
  Alcotest.(check int) "depth 1" 4 (Topo.depth nets.(1));
  Alcotest.(check int) "depth 2" 6 (Topo.depth nets.(2))

let eval_adder net ~bits a b cin =
  let inputs = Array.make ((2 * bits) + 1) false in
  for i = 0 to bits - 1 do
    inputs.(i) <- (a lsr i) land 1 = 1;
    inputs.(bits + i) <- (b lsr i) land 1 = 1
  done;
  inputs.(2 * bits) <- cin;
  let values = Net.eval net ~inputs in
  let outs = Net.outputs net in
  (* Outputs are sum bits then carry. *)
  let sum = ref 0 in
  for i = 0 to bits - 1 do
    if values.(outs.(i)) then sum := !sum lor (1 lsl i)
  done;
  let carry = values.(outs.(bits)) in
  (!sum, carry)

let test_ripple_adder_functional () =
  let bits = 4 in
  let net = G.ripple_carry_adder ~bits in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let sum, carry = eval_adder net ~bits a b false in
      let expected = a + b in
      Alcotest.(check int)
        (Printf.sprintf "%d+%d sum" a b)
        (expected land 15) sum;
      Alcotest.(check bool)
        (Printf.sprintf "%d+%d carry" a b)
        (expected > 15) carry
    done
  done;
  let sum, carry = eval_adder net ~bits 15 0 true in
  Alcotest.(check int) "15+0+1 wraps" 0 sum;
  Alcotest.(check bool) "15+0+1 carries" true carry

let test_kogge_stone_functional () =
  let bits = 4 in
  let net = G.kogge_stone_adder ~bits in
  for a = 0 to 15 do
    for b = 0 to 15 do
      List.iter
        (fun cin ->
          let sum, carry = eval_adder net ~bits a b cin in
          let expected = a + b + if cin then 1 else 0 in
          Alcotest.(check int)
            (Printf.sprintf "ks %d+%d+%b sum" a b cin)
            (expected land 15) sum;
          Alcotest.(check bool)
            (Printf.sprintf "ks %d+%d+%b carry" a b cin)
            (expected > 15) carry)
        [ false; true ]
    done
  done

let test_kogge_stone_log_depth () =
  (* The point of the prefix structure: logarithmic depth vs linear. *)
  let ks = G.kogge_stone_adder ~bits:16 in
  let rca = G.ripple_carry_adder ~bits:16 in
  Alcotest.(check bool) "shallower than ripple" true
    (Topo.depth ks < Topo.depth rca / 2)

let eval_multiplier net ~bits a b =
  let inputs = Array.make (2 * bits) false in
  for i = 0 to bits - 1 do
    inputs.(i) <- (a lsr i) land 1 = 1;
    inputs.(bits + i) <- (b lsr i) land 1 = 1
  done;
  let values = Net.eval net ~inputs in
  let outs = Net.outputs net in
  let r = ref 0 in
  for w = 0 to (2 * bits) - 1 do
    if values.(outs.(w)) then r := !r lor (1 lsl w)
  done;
  !r

let test_array_multiplier_functional () =
  let bits = 4 in
  let net = G.array_multiplier ~bits in
  for a = 0 to 15 do
    for b = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" a b)
        (a * b)
        (eval_multiplier net ~bits a b)
    done
  done

let eval_alu net ~bits a b op =
  (* Inputs in declaration order: a bits, b bits, cin, op0, op1. *)
  let inputs = Array.make ((2 * bits) + 3) false in
  for i = 0 to bits - 1 do
    inputs.(i) <- (a lsr i) land 1 = 1;
    inputs.(bits + i) <- (b lsr i) land 1 = 1
  done;
  inputs.((2 * bits) + 1) <- op land 1 = 1;
  inputs.((2 * bits) + 2) <- op land 2 = 2;
  let values = Net.eval net ~inputs in
  let outs = Net.outputs net in
  let r = ref 0 in
  for i = 0 to bits - 1 do
    if values.(outs.(i)) then r := !r lor (1 lsl i)
  done;
  !r

let test_alu_functional () =
  let bits = 4 in
  let net = G.alu_slice ~bits () in
  let mask = 15 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) "add" ((a + b) land mask) (eval_alu net ~bits a b 0);
      Alcotest.(check int) "and" (a land b) (eval_alu net ~bits a b 1);
      Alcotest.(check int) "or" (a lor b) (eval_alu net ~bits a b 2);
      Alcotest.(check int) "xor" (a lxor b) (eval_alu net ~bits a b 3))
    [ (3, 5); (15, 1); (0, 0); (9, 6); (12, 10) ]

let test_decoder_functional () =
  let net = G.decoder ~select:3 () in
  for code = 0 to 7 do
    let inputs = Array.init 3 (fun i -> (code lsr i) land 1 = 1) in
    let values = Net.eval net ~inputs in
    let outs = Net.outputs net in
    Array.iteri
      (fun line id ->
        Alcotest.(check bool)
          (Printf.sprintf "code %d line %d" code line)
          (line = code) values.(id))
      outs
  done

let test_decoder_buffered_still_decodes () =
  let net = G.decoder ~input_buffer_depth:4 ~select:2 () in
  Alcotest.(check int) "depth includes buffers" 6 (Topo.depth net);
  let values = Net.eval net ~inputs:[| true; false |] in
  let outs = Net.outputs net in
  Alcotest.(check bool) "line 1 active" true values.(outs.(1));
  Alcotest.(check bool) "line 0 inactive" false values.(outs.(0));
  check_raises_invalid "odd buffer depth" (fun () ->
      ignore (G.decoder ~input_buffer_depth:3 ~select:2 ()))

let test_random_logic_properties () =
  let net = G.random_logic ~name:"r" ~inputs:10 ~gates:200 ~depth:15 ~seed:5 in
  Alcotest.(check int) "gate count exact" 200 (Net.n_gates net);
  Alcotest.(check int) "depth exact" 15 (Topo.depth net);
  (* No dangling logic: every gate either has fanout or is an output. *)
  Array.iter
    (fun id ->
      let has_fanout = Net.n_fanouts net id > 0 in
      let is_output = Array.exists (fun o -> o = id) (Net.outputs net) in
      Alcotest.(check bool) "no dangling" true (has_fanout || is_output))
    (Net.gate_ids net)

let test_random_logic_deterministic () =
  let a = G.random_logic ~name:"r" ~inputs:8 ~gates:50 ~depth:6 ~seed:42 in
  let b = G.random_logic ~name:"r" ~inputs:8 ~gates:50 ~depth:6 ~seed:42 in
  Alcotest.(check int) "same structure" (Net.n_nodes a) (Net.n_nodes b);
  (* Same functional behaviour on a probe vector. *)
  let inputs = Array.init 8 (fun i -> i mod 2 = 0) in
  Alcotest.(check (array bool)) "same eval" (Net.eval a ~inputs) (Net.eval b ~inputs)

let test_random_logic_seed_matters () =
  let a = G.random_logic ~name:"r" ~inputs:8 ~gates:50 ~depth:6 ~seed:1 in
  let b = G.random_logic ~name:"r" ~inputs:8 ~gates:50 ~depth:6 ~seed:2 in
  let inputs = Array.init 8 (fun i -> i mod 3 = 0) in
  Alcotest.(check bool) "different circuits" true
    (Net.eval a ~inputs <> Net.eval b ~inputs)

let test_iscas_profiles () =
  List.iter
    (fun (p : G.iscas_profile) ->
      let net =
        match p.G.bench_name with
        | "c432" -> G.c432 ()
        | "c1908" -> G.c1908 ()
        | "c2670" -> G.c2670 ()
        | "c3540" -> G.c3540 ()
        | other -> Alcotest.failf "unexpected profile %s" other
      in
      Alcotest.(check int) (p.G.bench_name ^ " gates") p.G.n_gates (Net.n_gates net);
      Alcotest.(check int) (p.G.bench_name ^ " depth") p.G.logic_depth (Topo.depth net))
    G.iscas_profiles

let test_iscas_pipeline_depth_equalised () =
  let nets = G.iscas_pipeline () in
  Alcotest.(check int) "4 stages" 4 (Array.length nets);
  Alcotest.(check string) "critical stage first" "c3540" (Net.name nets.(0));
  let depths = Array.map Topo.depth nets in
  Alcotest.(check bool) "c3540 deepest" true
    (depths.(0) > depths.(1) && depths.(0) > depths.(2) && depths.(0) > depths.(3));
  (* Depth spread compressed to allow a shared delay target. *)
  let lo = Array.fold_left min max_int depths in
  let hi = Array.fold_left max 0 depths in
  Alcotest.(check bool) "spread below 35%" true
    (float_of_int hi /. float_of_int lo < 1.35)

let test_alu_decoder_stages () =
  let stages = G.alu_decoder_stages ~bits:8 in
  Alcotest.(check int) "3 stages" 3 (Array.length stages);
  let d_alu = Topo.depth stages.(0) and d_dec = Topo.depth stages.(1) in
  Alcotest.(check bool) "comparable depths" true
    (abs (d_alu - d_dec) <= d_alu / 2)

let suite =
  [
    quick "inverter chain" test_inverter_chain;
    quick "chain pipeline" test_chain_pipeline;
    quick "variable depths" test_variable_depths;
    quick "ripple adder functional" test_ripple_adder_functional;
    quick "kogge-stone functional" test_kogge_stone_functional;
    quick "kogge-stone log depth" test_kogge_stone_log_depth;
    quick "array multiplier functional" test_array_multiplier_functional;
    quick "alu functional" test_alu_functional;
    quick "decoder functional" test_decoder_functional;
    quick "buffered decoder" test_decoder_buffered_still_decodes;
    quick "random logic invariants" test_random_logic_properties;
    quick "random logic deterministic" test_random_logic_deterministic;
    quick "random logic seed matters" test_random_logic_seed_matters;
    quick "iscas profiles" test_iscas_profiles;
    quick "iscas pipeline depth-equalised" test_iscas_pipeline_depth_equalised;
    quick "alu-decoder stages" test_alu_decoder_stages;
  ]
