open Helpers
module R = Spv_circuit.Report
module H = Spv_stats.Heap
module G = Spv_circuit.Generators
module B = Spv_circuit.Builder

let tech = Spv_process.Tech.bptm70

(* --- Heap -------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = H.create () in
  List.iter (fun p -> H.push h ~priority:p p) [ 3.0; 1.0; 4.0; 1.5; 9.0; 2.0 ];
  Alcotest.(check int) "length" 6 (H.length h);
  let rec drain acc =
    match H.pop h with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list (float 1e-12))) "descending"
    [ 9.0; 4.0; 3.0; 2.0; 1.5; 1.0 ]
    (drain [])

let test_heap_interleaved () =
  let h = H.create () in
  H.push h ~priority:1.0 "a";
  H.push h ~priority:5.0 "b";
  (match H.pop h with
  | Some (p, v) ->
      check_float "top priority" 5.0 p;
      Alcotest.(check string) "top value" "b" v
  | None -> Alcotest.fail "empty");
  H.push h ~priority:3.0 "c";
  (match H.peek h with
  | Some (_, v) -> Alcotest.(check string) "peek" "c" v
  | None -> Alcotest.fail "empty");
  Alcotest.(check bool) "not empty" false (H.is_empty h)

let prop_heap_sorts =
  prop "heap pops sorted"
    QCheck2.Gen.(list_size (int_range 0 100) (float_range (-100.0) 100.0))
    (fun xs ->
      let h = H.create () in
      List.iter (fun x -> H.push h ~priority:x x) xs;
      let rec drain acc =
        match H.pop h with Some (p, _) -> drain (p :: acc) | None -> acc
      in
      let popped = drain [] in
      popped = List.sort compare xs)

(* --- k-longest paths ----------------------------------------------------- *)

let test_single_path_circuit () =
  let net = G.inverter_chain ~depth:5 () in
  let paths = R.k_longest_paths tech net ~k:10 in
  Alcotest.(check int) "one path" 1 (Array.length paths);
  Alcotest.(check int) "its length" 5 (List.length paths.(0).R.gates);
  check_close ~rel:1e-9 "matches STA" (Spv_circuit.Sta.run tech net).Spv_circuit.Sta.delay
    paths.(0).R.nominal

let test_descending_order_and_top_matches_sta () =
  let net = G.c432 () in
  let paths = R.k_longest_paths tech net ~k:25 in
  Alcotest.(check int) "found 25" 25 (Array.length paths);
  check_close ~rel:1e-9 "top = critical"
    (Spv_circuit.Sta.run tech net).Spv_circuit.Sta.delay
    paths.(0).R.nominal;
  for i = 1 to Array.length paths - 1 do
    Alcotest.(check bool) "descending" true
      (paths.(i).R.nominal <= paths.(i - 1).R.nominal +. 1e-9)
  done

let test_paths_are_connected () =
  let net = G.alu_slice ~bits:4 () in
  let paths = R.k_longest_paths tech net ~k:5 in
  Array.iter
    (fun p ->
      let rec walk = function
        | [] | [ _ ] -> ()
        | x :: (y :: _ as rest) ->
            (match Spv_circuit.Netlist.node net y with
            | Spv_circuit.Netlist.Gate { fanin; _ } ->
                Alcotest.(check bool) "edge exists" true
                  (Array.exists (fun f -> f = x) fanin)
            | Spv_circuit.Netlist.Primary_input _ -> Alcotest.fail "input mid-path");
            walk rest
      in
      walk p.R.gates)
    paths

let test_diamond_counts_both_paths () =
  (* Two parallel branches of different lengths reconverging. *)
  let b = B.create ~name:"diamond" in
  let a = B.input b "a" in
  let slow1 = B.inv b a in
  let slow2 = B.inv b slow1 in
  let fast = B.inv b a in
  let join = B.nand2 b slow2 fast in
  B.output b join;
  let net = B.finish b in
  let paths = R.k_longest_paths tech net ~k:10 in
  Alcotest.(check int) "two distinct paths" 2 (Array.length paths);
  Alcotest.(check int) "slow path longer" 3 (List.length paths.(0).R.gates);
  Alcotest.(check int) "fast path shorter" 2 (List.length paths.(1).R.gates)

let test_path_nominal_matches_statistical () =
  let net = G.c432 () in
  let paths = R.k_longest_paths tech net ~k:3 in
  Array.iter
    (fun p ->
      check_close ~rel:1e-9 "nominal consistent" p.R.nominal
        p.R.statistical.Spv_process.Gate_delay.nominal)
    paths

let test_path_yield_bounds () =
  let net = G.c432 () in
  let paths = R.k_longest_paths tech net ~k:20 in
  let y = R.path_yield paths.(0) ~t_target:600.0 in
  check_in_range "yield" ~lo:0.0 ~hi:1.0 y;
  (* A clearly slower path has lower yield at the same target (the
     top ranks can tie in nominal delay, so compare first vs last). *)
  let last = paths.(Array.length paths - 1) in
  Alcotest.(check bool) "clearly slower, lower yield" true
    (R.path_yield paths.(0) ~t_target:520.0
    < R.path_yield last ~t_target:520.0)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let test_repeated_pin_is_one_path () =
  (* g2 reads g1 on both pins: one consumer, so one path, not two
     copies of the same gate sequence. *)
  let net =
    Spv_circuit.Bench_format.of_string ~name:"dup"
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n\
       g1 = NAND(a, b)\ng2 = NAND(g1, g1)\nz = NOT(g2)\n"
  in
  let paths = R.k_longest_paths tech net ~k:5 in
  Alcotest.(check int) "one path" 1 (Array.length paths);
  Alcotest.(check int) "three gates" 3 (List.length paths.(0).R.gates);
  Alcotest.(check bool) "render lists it once" true
    (contains (R.render tech net) "top 1 paths")

let test_render_contains_sections () =
  let net = G.c432 () in
  let text = R.render ~k:3 ~t_target:600.0 tech net in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains text needle))
    [ "critical delay"; "top 3 paths"; "most critical gates"; "P(<=" ]

let suite =
  [
    quick "heap ordering" test_heap_ordering;
    quick "heap interleaved" test_heap_interleaved;
    prop_heap_sorts;
    quick "single path" test_single_path_circuit;
    quick "descending order" test_descending_order_and_top_matches_sta;
    quick "paths connected" test_paths_are_connected;
    quick "diamond counts both" test_diamond_counts_both_paths;
    quick "nominal vs statistical" test_path_nominal_matches_statistical;
    quick "path yields" test_path_yield_bounds;
    quick "render sections" test_render_contains_sections;
    quick "repeated pin is one path" test_repeated_pin_is_one_path;
  ]
