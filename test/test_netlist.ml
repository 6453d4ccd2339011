open Helpers
module Net = Spv_circuit.Netlist
module B = Spv_circuit.Builder
module Cell = Spv_circuit.Cell

(* A tiny and-or structure used across tests:
   o = (a nand b) nor (inv a). *)
let example () =
  let b = B.create ~name:"example" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let n1 = B.nand2 b a bb in
  let n2 = B.inv b a in
  let o = B.nor2 b n1 n2 in
  B.output b o;
  B.finish b

let test_structure () =
  let net = example () in
  Alcotest.(check int) "nodes" 5 (Net.n_nodes net);
  Alcotest.(check int) "gates" 3 (Net.n_gates net);
  Alcotest.(check int) "inputs" 2 (Array.length (Net.input_ids net));
  Alcotest.(check int) "outputs" 1 (Array.length (Net.outputs net))

let fanouts net i =
  let acc = ref [] in
  Net.iter_fanouts net i (fun j -> acc := j :: !acc);
  List.rev !acc

let test_fanouts () =
  let net = example () in
  (* Input a feeds the nand and the inverter. *)
  Alcotest.(check (list int)) "fanouts of a" [ 3; 2 ] (fanouts net 0);
  Alcotest.(check (list int)) "nand feeds nor" [ 4 ] (fanouts net 2);
  Alcotest.(check (list int)) "output has no fanout" [] (fanouts net 4)

let test_eval_functional () =
  let net = example () in
  (* o = not ((a nand b) or (not a)). *)
  let expect a b =
    let n1 = not (a && b) in
    let n2 = not a in
    not (n1 || n2)
  in
  List.iter
    (fun (a, b) ->
      let values = Net.eval net ~inputs:[| a; b |] in
      Alcotest.(check bool)
        (Printf.sprintf "o(%b,%b)" a b)
        (expect a b)
        values.(4))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_sizes () =
  let net = example () in
  check_float "default size" 1.0 (Net.size net 2);
  Net.set_size net 2 3.0;
  check_float "updated size" 3.0 (Net.size net 2);
  check_raises_invalid "sizing an input" (fun () -> Net.set_size net 0 2.0);
  check_raises_invalid "non-positive size" (fun () -> Net.set_size net 2 0.0)

let test_snapshot_restore () =
  let net = example () in
  let snap = Net.sizes_snapshot net in
  Net.set_size net 2 5.0;
  Net.restore_sizes net snap;
  check_float "restored" 1.0 (Net.size net 2)

let test_area () =
  let net = example () in
  (* nand2 (2) + inv (1) + nor2 (2), all at size 1. *)
  check_float "area" 5.0 (Net.area net);
  Net.set_size net 2 2.0;
  check_float "area after sizing" 7.0 (Net.area net)

let test_copy_independent () =
  let net = example () in
  let dup = Net.copy net in
  Net.set_size net 2 4.0;
  check_float "copy unaffected" 1.0 (Net.size dup 2)

let test_validation_topological () =
  check_raises_invalid "forward reference" (fun () ->
      ignore
        (Net.make ~name:"bad"
           ~nodes:
             [|
               Net.Primary_input "a";
               Net.Gate { kind = Cell.Inv; fanin = [| 2 |] };
               Net.Gate { kind = Cell.Inv; fanin = [| 0 |] };
             |]
           ~outputs:[| 2 |] ~sizes:[| 1.0; 1.0; 1.0 |]))

let test_validation_arity () =
  check_raises_invalid "arity mismatch" (fun () ->
      ignore
        (Net.make ~name:"bad"
           ~nodes:
             [|
               Net.Primary_input "a";
               Net.Gate { kind = Cell.Nand2; fanin = [| 0 |] };
             |]
           ~outputs:[| 1 |] ~sizes:[| 1.0; 1.0 |]))

let test_validation_outputs () =
  check_raises_invalid "no outputs" (fun () ->
      ignore
        (Net.make ~name:"bad" ~nodes:[| Net.Primary_input "a" |] ~outputs:[||]
           ~sizes:[| 1.0 |]))

let test_builder_errors () =
  let b = B.create ~name:"x" in
  check_raises_invalid "unknown fanin" (fun () -> ignore (B.inv b 3));
  check_raises_invalid "finish without outputs" (fun () ->
      let b2 = B.create ~name:"y" in
      ignore (B.input b2 "a");
      ignore (B.finish b2))

let test_builder_mux () =
  let b = B.create ~name:"mux" in
  let s = B.input b "s" in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let m = B.mux2 b ~sel:s ~a:x ~b:y in
  B.output b m;
  let net = B.finish b in
  let v = Net.eval net ~inputs:[| false; true; false |] in
  Alcotest.(check bool) "mux selects a" true v.(3);
  let v = Net.eval net ~inputs:[| true; true; false |] in
  Alcotest.(check bool) "mux selects b" false v.(3)

let suite =
  [
    quick "structure" test_structure;
    quick "fanouts" test_fanouts;
    quick "functional eval" test_eval_functional;
    quick "sizes" test_sizes;
    quick "snapshot/restore" test_snapshot_restore;
    quick "area" test_area;
    quick "copy independence" test_copy_independent;
    quick "topological validation" test_validation_topological;
    quick "arity validation" test_validation_arity;
    quick "outputs required" test_validation_outputs;
    quick "builder errors" test_builder_errors;
    quick "builder mux" test_builder_mux;
  ]
