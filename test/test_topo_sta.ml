open Helpers
module Net = Spv_circuit.Netlist
module B = Spv_circuit.Builder
module Topo = Spv_circuit.Topo
module Sta = Spv_circuit.Sta
module G = Spv_circuit.Generators

let tech = Spv_process.Tech.bptm70

(* --- Topo ------------------------------------------------------------ *)

let test_levels_chain () =
  let net = G.inverter_chain ~depth:5 () in
  let levels = Topo.levels net in
  Alcotest.(check int) "input level" 0 levels.(0);
  Alcotest.(check int) "last level" 5 levels.(5);
  Alcotest.(check int) "depth" 5 (Topo.depth net)

let test_levels_diamond () =
  let b = B.create ~name:"diamond" in
  let a = B.input b "a" in
  let l = B.inv b a in
  let r = B.inv b a in
  let m = B.nand2 b l r in
  B.output b m;
  let net = B.finish b in
  Alcotest.(check int) "depth" 2 (Topo.depth net);
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2 |] (Topo.levels net)

let test_generated_depths () =
  List.iter
    (fun (net, expected) ->
      Alcotest.(check int)
        (Net.name net ^ " depth")
        expected (Topo.depth net))
    [ (G.c432 (), 17); (G.c1908 (), 40); (G.c2670 (), 32); (G.c3540 (), 47) ]

(* --- STA ------------------------------------------------------------- *)

let test_chain_delay_closed_form () =
  (* Uniform inverter chain: every inverter drives one same-size
     inverter (load g = 1) except the last, which drives the
     primary-output load.
     delay = (depth-1) * tau * (p + 1) + tau * (p + load). *)
  let depth = 6 in
  let net = G.inverter_chain ~depth () in
  let output_load = Net.output_load in
  let sta = Sta.run tech net in
  let tau = tech.Spv_process.Tech.tau in
  let expected =
    (float_of_int (depth - 1) *. tau *. 2.0) +. (tau *. (1.0 +. output_load))
  in
  check_close ~rel:1e-12 "closed form" expected sta.Sta.delay;
  Alcotest.(check int) "critical path length" depth
    (List.length sta.Sta.critical_path)

let test_upsizing_final_gate_speeds_up () =
  let net = G.inverter_chain ~depth:4 () in
  let before = (Sta.run tech net).Sta.delay in
  (* The last inverter drives the fixed primary-output load; doubling
     it halves that stage's effort delay. *)
  Net.set_size net 4 2.0;
  let after = (Sta.run tech net).Sta.delay in
  Alcotest.(check bool) "faster" true (after < before)

let test_critical_path_is_slowest () =
  let b = B.create ~name:"twopaths" in
  let a = B.input b "a" in
  (* Slow path: 3 inverters; fast path: 1 inverter; both reconverge. *)
  let s1 = B.inv b a in
  let s2 = B.inv b s1 in
  let s3 = B.inv b s2 in
  let f1 = B.inv b a in
  let m = B.nand2 b s3 f1 in
  B.output b m;
  let net = B.finish b in
  let sta = Sta.run tech net in
  (* Critical path must go through the 3-inverter branch. *)
  Alcotest.(check int) "path length" 4 (List.length sta.Sta.critical_path);
  Alcotest.(check bool) "slow branch on path" true
    (List.mem 3 sta.Sta.critical_path)

let test_arrival_monotone_along_path () =
  let net = G.c432 () in
  let sta = Sta.run tech net in
  let rec check_path = function
    | [] | [ _ ] -> ()
    | x :: (y :: _ as rest) ->
        Alcotest.(check bool) "arrival increases" true
          (sta.Sta.arrival.(x) < sta.Sta.arrival.(y));
        check_path rest
  in
  check_path sta.Sta.critical_path;
  check_close ~rel:1e-12 "path delay sums to total" sta.Sta.delay
    (List.fold_left
       (fun acc i -> acc +. sta.Sta.gate_delays.(i))
       0.0 sta.Sta.critical_path)

let test_loads () =
  let net = G.inverter_chain ~depth:2 () in
  let loads = Net.loads net in
  (* First inverter drives the second (inv cin = size = 1). *)
  check_float "internal load" 1.0 loads.(1);
  check_float "po load" 4.0 loads.(2)

let test_factors () =
  let net = G.inverter_chain ~depth:3 () in
  let base = (Sta.run tech net).Sta.delay in
  let factors = Array.make (Net.n_nodes net) 1.1 in
  let sta = Sta.run_with_factors tech net ~factors in
  check_close ~rel:1e-12 "uniform factor scales delay" (base *. 1.1)
    sta.Sta.delay;
  check_raises_invalid "wrong factor length" (fun () ->
      ignore (Sta.run_with_factors tech net ~factors:[| 1.0 |]))

let suite =
  [
    quick "levels of chain" test_levels_chain;
    quick "levels of diamond" test_levels_diamond;
    quick "generated benchmark depths" test_generated_depths;
    quick "chain delay closed form" test_chain_delay_closed_form;
    quick "upsizing speeds up" test_upsizing_final_gate_speeds_up;
    quick "critical path is slowest" test_critical_path_is_slowest;
    quick "arrival monotone" test_arrival_monotone_along_path;
    quick "loads" test_loads;
    quick "variation factors" test_factors;
  ]
