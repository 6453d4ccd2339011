(* Pins every pass built on the netlist propagation walk to its exact
   bits: the forward STA variants, block SSTA, the affine and cone
   forms, the sensitivity duals, static criticality, the k-longest
   path report and the sizes both sizers choose. *)

open Helpers
module Net = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta
module Gen = Spv_circuit.Generators
module Fuzz = Spv_circuit.Fuzz
module Canonical = Spv_circuit.Canonical
module Block_ssta = Spv_circuit.Block_ssta
module Report = Spv_circuit.Report
module Engine = Spv_engine.Engine
module Affine = Spv_analysis.Affine
module Affine_sta = Spv_analysis.Affine_sta
module Interval = Spv_analysis.Interval
module Cones = Spv_analysis.Cones
module Sensitivity = Spv_analysis.Sensitivity
module Static_criticality = Spv_analysis.Static_criticality
module Lagrangian = Spv_sizing.Lagrangian
module Greedy = Spv_sizing.Greedy
module Rng = Spv_stats.Rng

let tech = Spv_process.Tech.bptm70

(* A primary output that also drives a gate, and a gate that reads one
   signal on two pins: the two load-order corner cases. *)
let corner_net () =
  Spv_circuit.Bench_format.of_string ~name:"corner"
    "INPUT(a)\n\
     INPUT(b)\n\
     INPUT(c)\n\
     OUTPUT(g1)\n\
     OUTPUT(z)\n\
     g1 = NAND(a, b)\n\
     g2 = NAND(g1, g1)\n\
     g3 = NOR(g1, c)\n\
     g4 = NAND(g2, g3)\n\
     z = NOT(g4)\n"

(* Every stage of two fuzzed pipelines (2 to 18 gates each). *)
let fuzz_nets () =
  List.concat_map
    (fun seed -> Array.to_list (Fuzz.generate (Rng.create ~seed)))
    [ 1; 18 ]

let nets () =
  [ Gen.c432 (); Gen.alu_slice ~bits:8 (); corner_net () ] @ fuzz_nets ()

let output_drives_gate net =
  Array.exists (fun o -> Net.n_fanouts net o > 0) (Net.outputs net)

let repeated_fanin net =
  Array.exists
    (fun i ->
      match Net.node net i with
      | Net.Gate { fanin; _ } ->
          let n = Array.length fanin in
          let dup = ref false in
          for a = 0 to n - 1 do
            for b = a + 1 to n - 1 do
              if fanin.(a) = fanin.(b) then dup := true
            done
          done;
          !dup
      | Net.Primary_input _ -> false)
    (Net.gate_ids net)

(* ---- rendering -------------------------------------------------------- *)

let floats b xs =
  Array.iter (fun x -> Printf.bprintf b "%h;" x) xs;
  Buffer.add_char b '\n'

let ints b xs =
  List.iter (fun x -> Printf.bprintf b "%d;" x) xs;
  Buffer.add_char b '\n'

let canonical b (c : Canonical.t) =
  Printf.bprintf b "%h,%h,%h,%h;" c.Canonical.nominal c.Canonical.s_inter
    c.Canonical.s_sys c.Canonical.s_rand

let interval b iv = Printf.bprintf b "[%h,%h]" (Interval.lo iv) (Interval.hi iv)

let symbol = function
  | Affine.Factor j -> Printf.sprintf "F%d" j
  | Affine.Vth_inter -> "V"
  | Affine.Leff_inter -> "L"
  | Affine.Sys j -> Printf.sprintf "S%d" j
  | Affine.Rand { stage; node } -> Printf.sprintf "R%d.%d" stage node

let affine b (f : Affine.t) =
  Printf.bprintf b "%h{" f.Affine.center;
  Array.iter
    (fun (s, c) -> Printf.bprintf b "%s:%h," (symbol s) c)
    f.Affine.terms;
  interval b f.Affine.rem;
  Printf.bprintf b "#%d};" f.Affine.events

let sta_result b (r : Sta.result) =
  floats b r.Sta.arrival;
  floats b r.Sta.gate_delays;
  Printf.bprintf b "%h|%d|" r.Sta.delay r.Sta.critical_output;
  ints b r.Sta.critical_path

let enclosure b (e : Sensitivity.enclosure) =
  interval b e.Sensitivity.value;
  interval b e.Sensitivity.deriv;
  Printf.bprintf b "%b;" e.Sensitivity.certified

(* ---- the digest --------------------------------------------------------- *)

let render_net b net =
  Printf.bprintf b "== %s\n" (Net.name net);
  let n = Net.n_nodes net in
  sta_result b (Sta.run tech net);
  let factors =
    Array.init n (fun i -> 0.8 +. (0.05 *. float_of_int (i mod 9)))
  in
  sta_result b (Sta.run_with_factors tech net ~factors);
  let m = Sta.run_min tech net in
  floats b m.Sta.arrival;
  Printf.bprintf b "%h|%d|" m.Sta.delay m.Sta.critical_output;
  ints b m.Sta.critical_path;
  let bl = Block_ssta.run tech net in
  Array.iter (canonical b) bl.Block_ssta.arrivals;
  canonical b bl.Block_ssta.output;
  floats b bl.Block_ssta.criticality;
  let sc = Static_criticality.analyse ~k:3.0 tech net in
  floats b sc.Static_criticality.through_hi;
  Printf.bprintf b "%h|%d\n" sc.Static_criticality.lo_delay
    sc.Static_criticality.n_active_gates;
  Array.iter
    (fun p ->
      Printf.bprintf b "%h|" p.Report.nominal;
      ints b p.Report.gates)
    (Report.k_longest_paths tech net ~k:12);
  let ff = Spv_process.Flipflop.default tech in
  let gates = Net.gate_ids net in
  List.iter
    (fun g ->
      let s = Net.size net g in
      List.iter
        (fun (param, box) ->
          let r = Sensitivity.stage ~ff tech net ~param ~box in
          enclosure b r.Sensitivity.s_nominal;
          enclosure b r.Sensitivity.s_mu;
          enclosure b r.Sensitivity.s_sigma;
          Buffer.add_char b '\n')
        [
          (Sensitivity.Size g, Interval.make ~lo:(s *. 0.9) ~hi:(s *. 1.2));
          (Sensitivity.Size g, Interval.point s);
          (Sensitivity.Factor g, Interval.make ~lo:0.95 ~hi:1.1);
        ])
    [ gates.(0); gates.(Array.length gates / 2);
      gates.(Array.length gates - 1) ];
  let ctx = Engine.Ctx.of_circuits ~ff tech [| net; Net.copy net |] in
  let af = Affine_sta.of_ctx ctx in
  Array.iter
    (fun (st : Affine_sta.stage) ->
      Option.iter (affine b) st.Affine_sta.sta_form;
      interval b st.Affine_sta.enclosure)
    af.Affine_sta.stages;
  Option.iter (affine b) af.Affine_sta.pipe_sta;
  Buffer.add_char b '\n';
  let co = Cones.analyse ~t_target:(1.1 *. (Sta.run tech net).Sta.delay) ctx in
  for stage = 0 to 1 do
    match Cones.gate_bounds co ~stage with
    | None -> ()
    | Some bs -> Array.iter (interval b) bs
  done;
  Buffer.add_char b '\n';
  let z = 1.645 in
  let relaxed = Lagrangian.relaxed_delay ~ff tech (Net.copy net) ~z in
  let t_target = 0.85 *. relaxed in
  let lag = Net.copy net in
  ignore (Lagrangian.size_stage ~ff tech lag ~t_target ~z);
  floats b (Net.sizes_snapshot lag);
  let gr = Net.copy net in
  ignore (Greedy.size_stage ~ff tech gr ~t_target ~z);
  floats b (Net.sizes_snapshot gr)

let propagation_digest () =
  let b = Buffer.create (1 lsl 16) in
  List.iter (render_net b) (nets ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_digest () =
  let all = nets () in
  Alcotest.(check bool) "some output drives a gate" true
    (List.exists output_drives_gate all);
  Alcotest.(check bool) "some gate repeats a fanin" true
    (List.exists repeated_fanin all);
  Alcotest.(check string) "propagation digest"
    "2ec9417b09fb8274a22fbcf5854ee4d1" (propagation_digest ())

(* ---- fold start ------------------------------------------------------- *)

let test_late_fold_start () =
  (* Negative factors make every gate delay negative, so a late-mode
     fold seeded with 0.0 differs from one seeded with the first
     fanin: each inverter restarts from max(0, fanin) = 0. *)
  let net = Gen.inverter_chain ~depth:3 () in
  let factors = Array.make (Net.n_nodes net) (-1.0) in
  let r = Sta.run_with_factors tech net ~factors in
  Alcotest.(check (float 0.0)) "late mode folds from 0.0"
    r.Sta.gate_delays.(r.Sta.critical_output) r.Sta.delay

(* ---- the load invariant ------------------------------------------------ *)

(* Independent reference: consumers in descending id, a consumer's
   later pins first, summed from 0.0, the output cap added last. *)
let reference_load net i =
  let acc = ref 0.0 in
  for j = Net.n_nodes net - 1 downto i + 1 do
    match Net.node net j with
    | Net.Primary_input _ -> ()
    | Net.Gate { kind; fanin } ->
        for k = Array.length fanin - 1 downto 0 do
          if fanin.(k) = i then
            acc :=
              !acc +. Spv_circuit.Cell.input_cap kind ~size:(Net.size net j)
        done
  done;
  !acc +. if Net.is_output net i then Net.output_load else 0.0

(* Both read paths: [load] before the array is (re)built, then [loads]. *)
let check_loads what net =
  let check how i l =
    let r = reference_load net i in
    if Int64.bits_of_float l <> Int64.bits_of_float r then
      Alcotest.failf "%s: %s %s node %d: %h, from scratch %h" what
        (Net.name net) how i l r
  in
  for i = 0 to Net.n_nodes net - 1 do
    check "load" i (Net.load net i)
  done;
  Array.iteri (check "loads") (Net.loads net)

(* Random interleavings of resizes, restores, copies and queries:
   every query must see a from-scratch fold, and a resized copy must
   leave its original alone. *)
let test_load_invariant () =
  (* The reference itself, on g1 (node 3): an output that drives g2 on
     both pins and g3 once — two nand2 pins, one nor2 pin, then the
     output cap. *)
  let cap k = Spv_circuit.Cell.input_cap k ~size:1.0 in
  Alcotest.(check (float 0.0)) "output with fanout"
    (cap Spv_circuit.Cell.Nor2 +. cap Spv_circuit.Cell.Nand2
    +. cap Spv_circuit.Cell.Nand2 +. Net.output_load)
    (reference_load (corner_net ()) 3);
  List.iteri
    (fun seed net ->
      let rng = Rng.create ~seed in
      let gates = Net.gate_ids net in
      let net = ref (Net.copy net) in
      let snapshots = ref [ Net.sizes_snapshot !net ] in
      for step = 1 to 300 do
        let what = Printf.sprintf "seed %d step %d" seed step in
        match Rng.int rng ~bound:5 with
        | 0 | 1 ->
            let g = gates.(Rng.int rng ~bound:(Array.length gates)) in
            let size = 0.25 *. float_of_int (1 + Rng.int rng ~bound:32) in
            Net.set_size !net g size
        | 2 ->
            let snaps = !snapshots in
            Net.restore_sizes !net
              (List.nth snaps (Rng.int rng ~bound:(List.length snaps)));
            snapshots := Net.sizes_snapshot !net :: snaps
        | 3 ->
            let original = !net in
            let c = Net.copy original in
            let before = Array.copy (Net.loads original) in
            check_loads (what ^ " copy") c;
            let g = gates.(Rng.int rng ~bound:(Array.length gates)) in
            Net.set_size c g (Net.size c g *. 1.5);
            if Net.loads original <> before then
              Alcotest.failf "%s: resizing a copy moved the original's loads"
                what;
            net := c
        | _ -> check_loads what !net
      done;
      check_loads "final" !net)
    (corner_net () :: Gen.c432 () :: fuzz_nets ())

let suite =
  [
    quick "propagation passes golden digest" test_digest;
    quick "late-mode fold starts from 0.0" test_late_fold_start;
    quick "loads follow resizes, restores and copies" test_load_invariant;
  ]
