open Helpers
module Bf = Spv_circuit.Bench_format
module Net = Spv_circuit.Netlist
module G = Spv_circuit.Generators

let sample_text =
  {|# a comment
INPUT(a)
INPUT(b)
n1 = NAND(a, b)
n2 = INV(n1) [size=2.5]
OUTPUT(n2)
|}

let test_parse_basic () =
  let net = Bf.of_string sample_text in
  Alcotest.(check int) "gates" 2 (Net.n_gates net);
  Alcotest.(check int) "inputs" 2 (Array.length (Net.input_ids net));
  Alcotest.(check int) "outputs" 1 (Array.length (Net.outputs net));
  (* Size annotation parsed. *)
  let inv_id =
    Array.to_list (Net.gate_ids net)
    |> List.find (fun i ->
           match Net.node net i with
           | Net.Gate { kind = Spv_circuit.Cell.Inv; _ } -> true
           | _ -> false)
  in
  check_float "annotated size" 2.5 (Net.size net inv_id)

let test_parse_functional () =
  let net = Bf.of_string sample_text in
  (* n2 = not (a nand b) = a and b. *)
  List.iter
    (fun (a, b) ->
      let values = Net.eval net ~inputs:[| a; b |] in
      let out = (Net.outputs net).(0) in
      Alcotest.(check bool) (Printf.sprintf "and %b %b" a b) (a && b) values.(out))
    [ (true, true); (true, false); (false, false) ]

let test_out_of_order_statements () =
  let text =
    {|OUTPUT(y)
y = INV(x)
x = NOR(a, b)
INPUT(b)
INPUT(a)
|}
  in
  let net = Bf.of_string text in
  Alcotest.(check int) "gates" 2 (Net.n_gates net)

let test_arity_suffix_resolution () =
  let text =
    {|INPUT(a)
INPUT(b)
INPUT(c)
y = NAND(a, b, c)
OUTPUT(y)
|}
  in
  let net = Bf.of_string text in
  match Net.node net (Net.gate_ids net).(0) with
  | Net.Gate { kind = Spv_circuit.Cell.Nand3; _ } -> ()
  | _ -> Alcotest.fail "expected NAND of three inputs to resolve to nand3"

let test_roundtrip_generated () =
  List.iter
    (fun net ->
      let text = Bf.to_string net in
      let back = Bf.of_string ~name:(Net.name net) text in
      Alcotest.(check bool)
        (Net.name net ^ " roundtrip")
        true
        (Bf.roundtrip_equal net back))
    [
      G.inverter_chain ~depth:5 ();
      G.ripple_carry_adder ~bits:4;
      G.kogge_stone_adder ~bits:4;
      G.array_multiplier ~bits:3;
      G.alu_slice ~bits:4 ();
      G.c432 ();
    ]

let test_roundtrip_preserves_sizes () =
  let net = G.inverter_chain ~depth:3 () in
  Net.set_size net 2 4.25;
  let back = Bf.of_string (Bf.to_string net) in
  let resized =
    Array.to_list (Net.gate_ids back)
    |> List.filter (fun i -> abs_float (Net.size back i -. 4.25) < 1e-9)
  in
  Alcotest.(check int) "one resized gate survives" 1 (List.length resized)

let test_roundtrip_timing_identical () =
  (* The semantic check that matters: same STA results after a
     round-trip. *)
  let tech = Spv_process.Tech.bptm70 in
  let net = G.c432 () in
  let back = Bf.of_string (Bf.to_string net) in
  check_close ~rel:1e-9 "same critical delay"
    (Spv_circuit.Sta.run tech net).Spv_circuit.Sta.delay
    (Spv_circuit.Sta.run tech back).Spv_circuit.Sta.delay;
  check_close ~rel:1e-9 "same area" (Net.area net) (Net.area back)

let expect_failure name text =
  match Bf.of_string text with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: expected parse failure" name

let test_error_cases () =
  expect_failure "undefined signal" "INPUT(a)\ny = INV(zzz)\nOUTPUT(y)\n";
  expect_failure "unknown cell" "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n";
  expect_failure "duplicate" "INPUT(a)\na = INV(a)\nOUTPUT(a)\n";
  expect_failure "cycle" "INPUT(a)\nx = INV(y)\ny = INV(x)\nOUTPUT(y)\n";
  expect_failure "no outputs" "INPUT(a)\ny = INV(a)\n";
  expect_failure "bad size" "INPUT(a)\ny = INV(a) [size=zero]\nOUTPUT(y)\n";
  expect_failure "arity" "INPUT(a)\ny = XOR(a)\nOUTPUT(y)\n";
  expect_failure "undefined output" "INPUT(a)\ny = INV(a)\nOUTPUT(q)\n"

let expect_error_line name text ~line ~fragment =
  match Bf.of_string_result text with
  | Ok _ -> Alcotest.failf "%s: expected typed parse error" name
  | Error e ->
      Alcotest.(check (option int)) (name ^ ": line number") (Some line) e.Bf.line;
      let contains s sub =
        let n = String.length sub in
        let ok = ref false in
        for i = 0 to String.length s - n do
          if String.sub s i n = sub then ok := true
        done;
        !ok
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: message %S mentions %S" name e.Bf.message fragment)
        true
        (contains e.Bf.message fragment)

let test_duplicate_gate_line_number () =
  (* The reported line must be the SECOND (offending) definition, not
     the first. *)
  expect_error_line "duplicate gate"
    "INPUT(a)\nn1 = INV(a)\nn2 = INV(n1)\nn1 = BUF(a)\nOUTPUT(n2)\n"
    ~line:4 ~fragment:"duplicate";
  expect_error_line "gate shadowing input"
    "INPUT(a)\nINPUT(b)\na = INV(b)\nOUTPUT(a)\n"
    ~line:3 ~fragment:"duplicate";
  expect_error_line "duplicate input"
    "INPUT(a)\nINPUT(a)\ny = INV(a)\nOUTPUT(y)\n"
    ~line:2 ~fragment:"duplicate"

let test_trailing_garbage_rejected () =
  expect_error_line "garbage after definition"
    "INPUT(a)\ny = INV(a) oops\nOUTPUT(y)\n"
    ~line:2 ~fragment:"trailing garbage";
  expect_error_line "garbage after INPUT"
    "INPUT(a) junk\ny = INV(a)\nOUTPUT(y)\n"
    ~line:1 ~fragment:"trailing garbage";
  expect_error_line "garbage after OUTPUT"
    "INPUT(a)\ny = INV(a)\nOUTPUT(y) extra\n"
    ~line:3 ~fragment:"trailing garbage";
  (* Comments after a statement are still fine, and a size annotation
     is not garbage. *)
  (match Bf.of_string_result "INPUT(a) # fine\ny = INV(a) [size=2] # ok\nOUTPUT(y)\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "comment wrongly rejected: %s" e.Bf.message)

let all_cells_netlist () =
  (* One instance of every library cell, in a single netlist. *)
  let module B = Spv_circuit.Builder in
  let module C = Spv_circuit.Cell in
  let b = B.create ~name:"zoo" in
  let i = Array.init 4 (fun k -> B.input b (Printf.sprintf "i%d" k)) in
  List.iter
    (fun kind ->
      let fanin = List.init (C.arity kind) (fun k -> i.(k)) in
      B.output b (B.gate b kind fanin))
    C.all;
  B.finish b

let test_every_cell_roundtrips () =
  let net = all_cells_netlist () in
  Alcotest.(check int) "all cells present"
    (List.length Spv_circuit.Cell.all)
    (Net.n_gates net);
  let back = Bf.of_string (Bf.to_string net) in
  Alcotest.(check bool) "structural roundtrip" true (Bf.roundtrip_equal net back);
  (match Equivalence.check net back (Spv_stats.Rng.create ~seed:250) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "functional roundtrip failed");
  (* Every cell also times. *)
  let sta = Spv_circuit.Sta.run Spv_process.Tech.bptm70 net in
  Alcotest.(check bool) "positive delay" true (sta.Spv_circuit.Sta.delay > 0.0)

let test_random_logic_roundtrips () =
  List.iter
    (fun seed ->
      let net =
        G.random_logic ~name:"r" ~inputs:8 ~gates:60 ~depth:7 ~seed
      in
      let back = Bf.of_string (Bf.to_string net) in
      match Equivalence.check net back (Spv_stats.Rng.create ~seed:251) with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "seed %d roundtrip failed" seed)
    [ 1; 2; 3 ]

let test_file_io () =
  let net = G.ripple_carry_adder ~bits:3 in
  let path = Filename.temp_file "spv_test" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bf.write_file path net;
      let back = Bf.read_file path in
      Alcotest.(check bool) "file roundtrip" true (Bf.roundtrip_equal net back))

let suite =
  [
    quick "parse basic" test_parse_basic;
    quick "parse functional" test_parse_functional;
    quick "out-of-order statements" test_out_of_order_statements;
    quick "arity suffix resolution" test_arity_suffix_resolution;
    quick "roundtrip generated circuits" test_roundtrip_generated;
    quick "roundtrip sizes" test_roundtrip_preserves_sizes;
    quick "roundtrip timing" test_roundtrip_timing_identical;
    quick "error cases" test_error_cases;
    quick "duplicate gate line numbers" test_duplicate_gate_line_number;
    quick "trailing garbage rejected" test_trailing_garbage_rejected;
    quick "every cell roundtrips" test_every_cell_roundtrips;
    quick "random logic roundtrips" test_random_logic_roundtrips;
    quick "file io" test_file_io;
  ]
