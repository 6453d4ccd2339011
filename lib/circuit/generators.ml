module Rng = Spv_stats.Rng

let inverter_chain ?name ?(size = 1.0) ~depth () =
  if depth <= 0 then invalid_arg "Generators.inverter_chain: depth <= 0";
  let name =
    match name with Some n -> n | None -> Printf.sprintf "invchain%d" depth
  in
  let b = Builder.create ~name in
  let input = Builder.input b "a" in
  let rec extend node remaining =
    if remaining = 0 then node
    else extend (Builder.inv ~size b node) (remaining - 1)
  in
  let last = extend input depth in
  Builder.output b last;
  Builder.finish b

let inverter_chain_pipeline ?(size = 1.0) ~stages ~depth () =
  if stages <= 0 then invalid_arg "Generators.inverter_chain_pipeline: stages <= 0";
  Array.init stages (fun i ->
      inverter_chain ~name:(Printf.sprintf "stage%d_invchain%d" i depth) ~size
        ~depth ())

let variable_depth_pipeline ?(size = 1.0) ~depths () =
  if Array.length depths = 0 then
    invalid_arg "Generators.variable_depth_pipeline: no stages";
  Array.mapi
    (fun i depth ->
      inverter_chain ~name:(Printf.sprintf "stage%d_invchain%d" i depth) ~size
        ~depth ())
    depths

(* Full adder on top of 2-input cells:
   sum  = (a xor b) xor cin
   cout = nand (nand (a, b), nand (a xor b, cin))  -- the standard
   inverting-majority realisation. *)
let full_adder b ~a ~bb ~cin =
  let axb = Builder.xor2 b a bb in
  let sum = Builder.xor2 b axb cin in
  let n1 = Builder.nand2 b a bb in
  let n2 = Builder.nand2 b axb cin in
  let cout = Builder.nand2 b n1 n2 in
  (sum, cout)

let ripple_carry_adder ~bits =
  if bits <= 0 then invalid_arg "Generators.ripple_carry_adder: bits <= 0";
  let b = Builder.create ~name:(Printf.sprintf "rca%d" bits) in
  let a = Array.init bits (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let bv = Array.init bits (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let cin = Builder.input b "cin" in
  let carry = ref cin in
  for i = 0 to bits - 1 do
    let sum, cout = full_adder b ~a:a.(i) ~bb:bv.(i) ~cin:!carry in
    Builder.output b sum;
    carry := cout
  done;
  Builder.output b !carry;
  Builder.finish b

(* Kogge-Stone parallel-prefix adder.  Prefix pairs combine as
   (G, P) = (G_hi or (P_hi and G_lo), P_hi and P_lo); the carry into
   bit i+1 is G_[i:0] or (P_[i:0] and cin). *)
let kogge_stone_adder ~bits =
  if bits <= 0 then invalid_arg "Generators.kogge_stone_adder: bits <= 0";
  let b = Builder.create ~name:(Printf.sprintf "ks%d" bits) in
  let a = Array.init bits (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let bv = Array.init bits (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let cin = Builder.input b "cin" in
  let g = Array.init bits (fun i -> Builder.and2 b a.(i) bv.(i)) in
  let p = Array.init bits (fun i -> Builder.xor2 b a.(i) bv.(i)) in
  let gs = ref (Array.copy g) and ps = ref (Array.copy p) in
  let dist = ref 1 in
  while !dist < bits do
    let g' = Array.copy !gs and p' = Array.copy !ps in
    for i = !dist to bits - 1 do
      let lo = i - !dist in
      let t = Builder.and2 b !ps.(i) !gs.(lo) in
      g'.(i) <- Builder.or2 b !gs.(i) t;
      p'.(i) <- Builder.and2 b !ps.(i) !ps.(lo)
    done;
    gs := g';
    ps := p';
    dist := !dist * 2
  done;
  (* Carries: c0 = cin; c_{i+1} = G_[i:0] or (P_[i:0] and cin). *)
  let carries = Array.make (bits + 1) cin in
  for i = 0 to bits - 1 do
    let through = Builder.and2 b !ps.(i) cin in
    carries.(i + 1) <- Builder.or2 b !gs.(i) through
  done;
  for i = 0 to bits - 1 do
    Builder.output b (Builder.xor2 b p.(i) carries.(i))
  done;
  Builder.output b carries.(bits);
  Builder.finish b

(* Array multiplier by carry-save column compression: AND partial
   products land in weight columns; columns reduce 3->2 with full
   adders (2->2 with half adders), carries ripple into the next
   column. *)
let array_multiplier ~bits =
  if bits <= 0 then invalid_arg "Generators.array_multiplier: bits <= 0";
  let b = Builder.create ~name:(Printf.sprintf "mul%d" bits) in
  let a = Array.init bits (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let bv = Array.init bits (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let width = 2 * bits in
  let cols = Array.make width [] in
  for i = 0 to bits - 1 do
    for j = 0 to bits - 1 do
      let w = i + j in
      cols.(w) <- Builder.and2 b a.(i) bv.(j) :: cols.(w)
    done
  done;
  for w = 0 to width - 1 do
    let rec compress () =
      match cols.(w) with
      | x :: y :: z :: rest ->
          let sum, cout = full_adder b ~a:x ~bb:y ~cin:z in
          cols.(w) <- sum :: rest;
          if w + 1 < width then cols.(w + 1) <- cout :: cols.(w + 1);
          compress ()
      | [ x; y ] ->
          let sum = Builder.xor2 b x y in
          let cout = Builder.and2 b x y in
          cols.(w) <- [ sum ];
          if w + 1 < width then cols.(w + 1) <- cout :: cols.(w + 1);
          compress ()
      | [ _ ] | [] -> ()
    in
    compress ();
    match cols.(w) with
    | [ bit ] -> Builder.output b bit
    | [] ->
        (* Only the top column can be empty (no carry generated); emit
           a constant zero as a nor of an input with itself's inverse
           is overkill - reuse an AND of complementary literals. *)
        let inv = Builder.inv b a.(0) in
        Builder.output b (Builder.and2 b a.(0) inv)
    | _ -> assert false
  done;
  Builder.finish b

let alu_slice ?name ~bits () =
  if bits <= 0 then invalid_arg "Generators.alu_slice: bits <= 0";
  let name =
    match name with Some n -> n | None -> Printf.sprintf "alu%d" bits
  in
  let b = Builder.create ~name in
  let a = Array.init bits (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let bv = Array.init bits (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let cin = Builder.input b "cin" in
  let op0 = Builder.input b "op0" in
  let op1 = Builder.input b "op1" in
  let carry = ref cin in
  for i = 0 to bits - 1 do
    let sum, cout = full_adder b ~a:a.(i) ~bb:bv.(i) ~cin:!carry in
    carry := cout;
    let land_ = Builder.and2 b a.(i) bv.(i) in
    let lor_ = Builder.or2 b a.(i) bv.(i) in
    let l_xor = Builder.xor2 b a.(i) bv.(i) in
    (* op1 op0: 00 -> add, 01 -> and, 10 -> or, 11 -> xor *)
    let lo = Builder.mux2 b ~sel:op0 ~a:sum ~b:land_ in
    let hi = Builder.mux2 b ~sel:op0 ~a:lor_ ~b:l_xor in
    let out = Builder.mux2 b ~sel:op1 ~a:lo ~b:hi in
    Builder.output b out
  done;
  Builder.output b !carry;
  Builder.finish b

let decoder ?(input_buffer_depth = 0) ~select () =
  if select <= 0 || select > 8 then
    invalid_arg "Generators.decoder: select out of range";
  if input_buffer_depth < 0 || input_buffer_depth mod 2 <> 0 then
    invalid_arg "Generators.decoder: input_buffer_depth must be even and >= 0";
  let b = Builder.create ~name:(Printf.sprintf "dec%dto%d" select (1 lsl select)) in
  let buffer_chain node =
    let rec go node remaining =
      if remaining = 0 then node else go (Builder.inv b node) (remaining - 1)
    in
    go node input_buffer_depth
  in
  let sel =
    Array.init select (fun i ->
        buffer_chain (Builder.input b (Printf.sprintf "s%d" i)))
  in
  let nsel = Array.map (fun s -> Builder.inv b s) sel in
  for code = 0 to (1 lsl select) - 1 do
    (* AND tree over the literals of this minterm. *)
    let literals =
      Array.to_list
        (Array.init select (fun bit ->
             if code land (1 lsl bit) <> 0 then sel.(bit) else nsel.(bit)))
    in
    let rec tree = function
      | [] -> assert false
      | [ x ] -> x
      | x :: y :: rest -> tree (Builder.and2 b x y :: rest)
    in
    Builder.output b (tree literals)
  done;
  Builder.finish b

let alu_decoder_stages ~bits =
  let alu1 = alu_slice ~name:"alu_part1" ~bits () in
  (* Match the decoder's depth to the ALU stages (see .mli). *)
  let pad = (Topo.depth alu1 + 2) / 2 * 2 in
  [|
    alu1;
    decoder ~input_buffer_depth:(Stdlib.max 0 pad) ~select:4 ();
    alu_slice ~name:"alu_part2" ~bits ();
  |]

(* Gate-kind mix loosely matching ISCAS85 statistics. *)
let kind_table =
  [|
    (Cell.Nand2, 0.30); (Cell.Nor2, 0.20); (Cell.Inv, 0.16); (Cell.And2, 0.08);
    (Cell.Or2, 0.06); (Cell.Nand3, 0.07); (Cell.Nor3, 0.04); (Cell.Xor2, 0.04);
    (Cell.Aoi21, 0.03); (Cell.Oai21, 0.02)
  |]

let pick_kind rng =
  let u = Rng.float rng in
  let rec go i acc =
    if i >= Array.length kind_table - 1 then fst kind_table.(i)
    else
      let k, w = kind_table.(i) in
      let acc = acc +. w in
      if u < acc then k else go (i + 1) acc
  in
  go 0 0.0

let random_logic_with ~rng ~name ~inputs ~gates ~depth =
  if inputs < 2 then invalid_arg "Generators.random_logic: inputs < 2";
  if depth < 1 then invalid_arg "Generators.random_logic: depth < 1";
  if gates < depth then invalid_arg "Generators.random_logic: gates < depth";
  let b = Builder.create ~name in
  let pis =
    Array.init inputs (fun i -> Builder.input b (Printf.sprintf "i%d" i))
  in
  (* Gates per level: geometric taper (wide near the inputs, narrowing
     towards the outputs), with at least one gate per level. *)
  let weights =
    Array.init depth (fun l -> exp (-1.5 *. float_of_int l /. float_of_int depth))
  in
  let wsum = Array.fold_left ( +. ) 0.0 weights in
  let counts =
    Array.map
      (fun w -> Stdlib.max 1 (int_of_float (float_of_int gates *. w /. wsum)))
      weights
  in
  (* Adjust rounding so the total is exactly [gates]. *)
  let fix_total () =
    let total = Array.fold_left ( + ) 0 counts in
    let diff = gates - total in
    if diff > 0 then counts.(0) <- counts.(0) + diff
    else begin
      let remaining = ref (-diff) in
      let l = ref 0 in
      while !remaining > 0 do
        if counts.(!l) > 1 then begin
          counts.(!l) <- counts.(!l) - 1;
          decr remaining
        end;
        l := (!l + 1) mod depth
      done
    end
  in
  fix_total ();
  let level_nodes = Array.make (depth + 1) [||] in
  level_nodes.(0) <- pis;
  for l = 1 to depth do
    let prev = level_nodes.(l - 1) in
    (* Candidate fanins from earlier levels, geometrically biased
       towards recent levels. *)
    let pick_earlier () =
      let rec back l' =
        if l' <= 0 then 0
        else if Rng.float rng < 0.55 then l' - 1
        else back (l' - 1)
      in
      let lvl = back (l - 1) in
      let pool = level_nodes.(lvl) in
      pool.(Rng.int rng ~bound:(Array.length pool))
    in
    let make_gate _ =
      let kind = pick_kind rng in
      let arity = Cell.arity kind in
      (* One fanin pinned to the previous level keeps the levelisation
         exact, so the generated circuit has the requested depth. *)
      let first = prev.(Rng.int rng ~bound:(Array.length prev)) in
      let rest = List.init (arity - 1) (fun _ -> pick_earlier ()) in
      Builder.gate b kind (first :: rest)
    in
    level_nodes.(l) <- Array.init counts.(l - 1) make_gate
  done;
  (* Last-level gates are outputs; a second pass below also promotes
     any other fanout-free gate, since dangling logic is illegal. *)
  Array.iter (fun id -> Builder.output b id) level_nodes.(depth);
  let provisional = Builder.finish b in
  (* Nodes with no fanout that are not yet outputs become outputs too
     (dangling logic is illegal in a real netlist). *)
  let extra_outputs = ref [] in
  Array.iter
    (fun id ->
      if
        Netlist.n_fanouts provisional id = 0
        && not (Netlist.is_output provisional id)
      then extra_outputs := id :: !extra_outputs)
    (Netlist.gate_ids provisional);
  if !extra_outputs = [] then provisional
  else
    Netlist.make ~name
      ~nodes:(Array.init (Netlist.n_nodes provisional) (Netlist.node provisional))
      ~outputs:
        (Array.append (Netlist.outputs provisional)
           (Array.of_list !extra_outputs))
      ~sizes:(Netlist.sizes_snapshot provisional)

let random_logic ~name ~inputs ~gates ~depth ~seed =
  random_logic_with ~rng:(Rng.create ~seed) ~name ~inputs ~gates ~depth

type iscas_profile = {
  bench_name : string;
  n_inputs : int;
  n_gates : int;
  logic_depth : int;
}

let iscas_profiles =
  [
    { bench_name = "c432"; n_inputs = 36; n_gates = 160; logic_depth = 17 };
    { bench_name = "c1908"; n_inputs = 33; n_gates = 880; logic_depth = 40 };
    { bench_name = "c2670"; n_inputs = 157; n_gates = 1193; logic_depth = 32 };
    { bench_name = "c3540"; n_inputs = 50; n_gates = 1669; logic_depth = 47 };
  ]

let of_profile seed p =
  random_logic ~name:p.bench_name ~inputs:p.n_inputs ~gates:p.n_gates
    ~depth:p.logic_depth ~seed

let find_profile name =
  List.find (fun p -> p.bench_name = name) iscas_profiles

let c432 () = of_profile 432 (find_profile "c432")
let c1908 () = of_profile 1908 (find_profile "c1908")
let c2670 () = of_profile 2670 (find_profile "c2670")
let c3540 () = of_profile 3540 (find_profile "c3540")

(* Depth-equalised pipeline variants: published gate counts, depths
   compressed towards a common clock target as retiming would do.
   c3540 keeps the largest depth so it stays the critical stage. *)
let pipeline_depths =
  [ ("c3540", 38); ("c2670", 32); ("c1908", 33); ("c432", 30) ]

let iscas_pipeline_seed = 85

let iscas_pipeline () =
  (* One splitmix64-derived stream per stage (not ad-hoc seed hashing),
     so fuzz mutations of these clones replay bit-identically. *)
  let streams =
    Rng.split (Rng.create ~seed:iscas_pipeline_seed)
      (List.length pipeline_depths)
  in
  Array.of_list
    (List.mapi
       (fun i (name, depth) ->
         let p = find_profile name in
         random_logic_with ~rng:streams.(i) ~name:p.bench_name
           ~inputs:p.n_inputs ~gates:p.n_gates ~depth)
       pipeline_depths)
