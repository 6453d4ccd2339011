module Rng = Spv_stats.Rng
module Tech = Spv_process.Tech

type config = {
  max_stages : int;
  max_gates : int;
  max_depth : int;
  min_inputs : int;
  max_inputs : int;
  grow_p : float;
  width_p : float;
  reconv_p : float;
  attenuation : float;
  max_size : float;
}

let default_config =
  {
    max_stages = 3;
    max_gates = 80;
    max_depth = 12;
    min_inputs = 2;
    max_inputs = 6;
    grow_p = 0.9;
    width_p = 0.85;
    reconv_p = 0.35;
    attenuation = 0.8;
    max_size = 4.0;
  }

let validate_config c =
  let fail msg = invalid_arg ("Fuzz.config: " ^ msg) in
  if c.max_stages < 1 then fail "max_stages < 1";
  if c.max_gates < 1 then fail "max_gates < 1";
  if c.max_depth < 1 then fail "max_depth < 1";
  if c.min_inputs < 2 then fail "min_inputs < 2";
  if c.max_inputs < c.min_inputs then fail "max_inputs < min_inputs";
  let prob name p =
    if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
      fail (name ^ " outside [0, 1]")
  in
  prob "grow_p" c.grow_p;
  prob "width_p" c.width_p;
  prob "reconv_p" c.reconv_p;
  if not (Float.is_finite c.attenuation) || c.attenuation <= 0.0
     || c.attenuation > 1.0
  then fail "attenuation outside (0, 1]";
  if not (Float.is_finite c.max_size) || c.max_size < 0.25 then
    fail "max_size < 0.25"

(* Sizes live on a 1/4 grid so the %g size annotations of
   Bench_format.to_string round-trip to the bit-identical float. *)
let quantize_size c v =
  let v = Float.round (v *. 4.0) /. 4.0 in
  Float.max 0.25 (Float.min c.max_size v)

(* Gate-kind mix: the ISCAS-like blend of Generators plus the
   remaining library cells, so fuzzing exercises every arity. *)
let kind_table =
  [|
    (Cell.Nand2, 0.22); (Cell.Nor2, 0.14); (Cell.Inv, 0.12); (Cell.And2, 0.08);
    (Cell.Or2, 0.07); (Cell.Nand3, 0.08); (Cell.Nor3, 0.05); (Cell.Xor2, 0.06);
    (Cell.Xnor2, 0.04); (Cell.Aoi21, 0.05); (Cell.Oai21, 0.04);
    (Cell.Mux2, 0.03); (Cell.Buf, 0.02);
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

(* Gates with no fanout that are not outputs would be dangling logic
   (a lint error); promote them to outputs. *)
let promote_dangling net =
  let extra = ref [] in
  Array.iter
    (fun id ->
      if Netlist.n_fanouts net id = 0 && not (Netlist.is_output net id)
      then extra := id :: !extra)
    (Netlist.gate_ids net);
  if !extra = [] then net
  else
    Netlist.make ~name:(Netlist.name net)
      ~nodes:(Array.init (Netlist.n_nodes net) (Netlist.node net))
      ~outputs:
        (Array.append (Netlist.outputs net) (Array.of_list (List.rev !extra)))
      ~sizes:(Netlist.sizes_snapshot net)

let generate_stage ?(config = default_config) ?(name = "fuzz") rng =
  validate_config config;
  let att l = config.attenuation ** float_of_int l in
  let n_inputs =
    config.min_inputs
    + Rng.int rng ~bound:(config.max_inputs - config.min_inputs + 1)
  in
  let b = Builder.create ~name in
  let pis =
    Array.init n_inputs (fun i -> Builder.input b (Printf.sprintf "i%d" i))
  in
  (* [levels] holds the node ids per committed level, most recent
     first; [all] is the flat pool for long-range (reconvergent)
     fanins. *)
  let levels = ref [ pis ] in
  let all = ref (Array.copy pis) in
  let total = ref 0 in
  let level = ref 0 in
  let continue_growing () =
    !level < config.max_depth
    && !total < config.max_gates
    && (!level = 0 || Rng.float rng < config.grow_p *. att !level)
  in
  while continue_growing () do
    incr level;
    let l = !level in
    let prev = List.hd !levels in
    let pool = !all in
    let this_level = ref [] in
    let add_gate () =
      let kind = pick_kind rng in
      let arity = Cell.arity kind in
      (* One fanin pinned to the previous level keeps the levelisation
         exact; the rest stay local unless the (attenuated)
         reconvergence coin sends them far back. *)
      let first = prev.(Rng.int rng ~bound:(Array.length prev)) in
      let rest =
        List.init (arity - 1) (fun _ ->
            if Rng.float rng < config.reconv_p *. att l then
              pool.(Rng.int rng ~bound:(Array.length pool))
            else prev.(Rng.int rng ~bound:(Array.length prev)))
      in
      let size =
        quantize_size config (Rng.uniform rng ~lo:0.25 ~hi:config.max_size)
      in
      let id = Builder.gate ~size b kind (first :: rest) in
      this_level := id :: !this_level;
      incr total
    in
    add_gate ();
    while
      !total < config.max_gates && Rng.float rng < config.width_p *. att l
    do
      add_gate ()
    done;
    let committed = Array.of_list (List.rev !this_level) in
    levels := committed :: !levels;
    all := Array.append !all committed
  done;
  Array.iter (fun id -> Builder.output b id) (List.hd !levels);
  promote_dangling (Builder.finish b)

let generate ?(config = default_config) rng =
  validate_config config;
  let n_stages = 1 + Rng.int rng ~bound:config.max_stages in
  (* Explicit sequencing: Array.init's evaluation order is unspecified
     and determinism here is the whole point. *)
  let first = generate_stage ~config ~name:"fz0" rng in
  let stages = Array.make n_stages first in
  for i = 1 to n_stages - 1 do
    stages.(i) <-
      generate_stage ~config ~name:(Printf.sprintf "fz%d" i) rng
  done;
  stages

(* ---- mutations ------------------------------------------------------ *)

type mutation = Resize | Split_stage | Merge_stages | Swap_stages

let all_mutations = [ Resize; Split_stage; Merge_stages; Swap_stages ]

let split_stage net ~at_level =
  let lv = Topo.levels net in
  let depth = Topo.depth net in
  if at_level < 1 || at_level >= depth then None
  else begin
    let n = Netlist.n_nodes net in
    let sizes = Netlist.sizes_snapshot net in
    let in_first i = lv.(i) <= at_level in
    (* Boundary: first-part nodes a second-part gate reads — they
       become the first part's outputs and the second part's primary
       inputs. *)
    let boundary = Array.make n false in
    for i = 0 to n - 1 do
      if not (in_first i) then
        match Netlist.node net i with
        | Netlist.Gate { fanin; _ } ->
            Array.iter
              (fun f -> if in_first f then boundary.(f) <- true)
              fanin
        | Netlist.Primary_input _ -> assert false (* inputs are level 0 *)
    done;
    (* First part: nodes with level <= at_level, ids compacted in
       order (fanins always reference lower levels, so order holds). *)
    let map1 = Array.make n (-1) in
    let nodes1 = ref [] and sizes1 = ref [] and outs1 = ref [] in
    let c1 = ref 0 in
    for i = 0 to n - 1 do
      if in_first i then begin
        map1.(i) <- !c1;
        incr c1;
        let node =
          match Netlist.node net i with
          | Netlist.Primary_input _ as p -> p
          | Netlist.Gate { kind; fanin } ->
              Netlist.Gate { kind; fanin = Array.map (fun f -> map1.(f)) fanin }
        in
        nodes1 := node :: !nodes1;
        sizes1 := sizes.(i) :: !sizes1;
        if boundary.(i) || Netlist.is_output net i then
          outs1 := map1.(i) :: !outs1
      end
    done;
    (* Second part: one fresh primary input per boundary node, then
       the remaining gates remapped. *)
    let map2 = Array.make n (-1) in
    let nodes2 = ref [] and sizes2 = ref [] in
    let c2 = ref 0 in
    for i = 0 to n - 1 do
      if boundary.(i) then begin
        map2.(i) <- !c2;
        incr c2;
        nodes2 := Netlist.Primary_input (Printf.sprintf "b%d" i) :: !nodes2;
        sizes2 := 1.0 :: !sizes2
      end
    done;
    for i = 0 to n - 1 do
      if not (in_first i) then begin
        map2.(i) <- !c2;
        incr c2;
        (match Netlist.node net i with
        | Netlist.Gate { kind; fanin } ->
            nodes2 :=
              Netlist.Gate { kind; fanin = Array.map (fun f -> map2.(f)) fanin }
              :: !nodes2
        | Netlist.Primary_input _ -> assert false);
        sizes2 := sizes.(i) :: !sizes2
      end
    done;
    let outs2 =
      Array.of_list
        (List.filter_map
           (fun o -> if in_first o then None else Some map2.(o))
           (Array.to_list (Netlist.outputs net)))
    in
    let has_gate nodes =
      List.exists
        (function Netlist.Gate _ -> true | Netlist.Primary_input _ -> false)
        nodes
    in
    if
      !outs1 = [] || Array.length outs2 = 0
      || not (has_gate !nodes1)
      || not (has_gate !nodes2)
    then None
    else
      let name = Netlist.name net in
      let first =
        Netlist.make ~name:(name ^ ".a")
          ~nodes:(Array.of_list (List.rev !nodes1))
          ~outputs:(Array.of_list (List.rev !outs1))
          ~sizes:(Array.of_list (List.rev !sizes1))
      in
      let second =
        Netlist.make ~name:(name ^ ".b")
          ~nodes:(Array.of_list (List.rev !nodes2))
          ~outputs:outs2
          ~sizes:(Array.of_list (List.rev !sizes2))
      in
      Some (promote_dangling first, promote_dangling second)
  end

let merge_stages a b =
  let na = Netlist.n_nodes a and nb = Netlist.n_nodes b in
  let a_sizes = Netlist.sizes_snapshot a in
  let b_sizes = Netlist.sizes_snapshot b in
  let outs_a = Netlist.outputs a in
  (* b's j-th primary input is driven by a's output (j mod n_out). *)
  let mapb = Array.make nb (-1) in
  Array.iteri
    (fun j id -> mapb.(id) <- outs_a.(j mod Array.length outs_a))
    (Netlist.input_ids b);
  let nodes = ref [] and sizes = ref [] in
  for i = 0 to na - 1 do
    nodes := Netlist.node a i :: !nodes;
    sizes := a_sizes.(i) :: !sizes
  done;
  let c = ref na in
  for i = 0 to nb - 1 do
    match Netlist.node b i with
    | Netlist.Primary_input _ -> ()
    | Netlist.Gate { kind; fanin } ->
        mapb.(i) <- !c;
        incr c;
        nodes :=
          Netlist.Gate { kind; fanin = Array.map (fun f -> mapb.(f)) fanin }
          :: !nodes;
        sizes := b_sizes.(i) :: !sizes
  done;
  let outputs = Array.map (fun o -> mapb.(o)) (Netlist.outputs b) in
  promote_dangling
    (Netlist.make
       ~name:(Netlist.name a ^ "+" ^ Netlist.name b)
       ~nodes:(Array.of_list (List.rev !nodes))
       ~outputs
       ~sizes:(Array.of_list (List.rev !sizes)))

let resize config rng nets =
  let s = Rng.int rng ~bound:(Array.length nets) in
  let net = nets.(s) in
  let gids = Netlist.gate_ids net in
  let k = 1 + Rng.int rng ~bound:(Stdlib.min 4 (Array.length gids)) in
  let factors = [| 0.5; 0.8; 1.25; 2.0 |] in
  for _ = 1 to k do
    let g = gids.(Rng.int rng ~bound:(Array.length gids)) in
    let f = factors.(Rng.int rng ~bound:(Array.length factors)) in
    Netlist.set_size net g (quantize_size config (Netlist.size net g *. f))
  done;
  nets

let mutate ?(config = default_config) rng nets =
  if Array.length nets = 0 then invalid_arg "Fuzz.mutate: empty pipeline";
  let nets = Array.map Netlist.copy nets in
  let splice s (x, y) =
    Array.concat
      [
        Array.sub nets 0 s; [| x; y |];
        Array.sub nets (s + 1) (Array.length nets - s - 1);
      ]
  in
  match List.nth all_mutations (Rng.int rng ~bound:(List.length all_mutations))
  with
  | Resize -> resize config rng nets
  | Swap_stages when Array.length nets >= 2 ->
      let i = Rng.int rng ~bound:(Array.length nets) in
      let j = Rng.int rng ~bound:(Array.length nets - 1) in
      let j = if j >= i then j + 1 else j in
      let tmp = nets.(i) in
      nets.(i) <- nets.(j);
      nets.(j) <- tmp;
      nets
  | Merge_stages when Array.length nets >= 2 ->
      let s = Rng.int rng ~bound:(Array.length nets - 1) in
      Array.concat
        [
          Array.sub nets 0 s;
          [| merge_stages nets.(s) nets.(s + 1) |];
          Array.sub nets (s + 2) (Array.length nets - s - 2);
        ]
  | Split_stage -> (
      let s = Rng.int rng ~bound:(Array.length nets) in
      let depth = Topo.depth nets.(s) in
      if depth < 2 then resize config rng nets
      else
        let at_level = 1 + Rng.int rng ~bound:(depth - 1) in
        match split_stage nets.(s) ~at_level with
        | Some parts -> splice s parts
        | None -> resize config rng nets)
  | Swap_stages | Merge_stages -> resize config rng nets

(* ---- process-scenario fuzzing --------------------------------------- *)

type process = {
  inter_vth_mv : float option;
  random_vth_mv : float option;
  sys_vth_mv : float option;
  leff_rel_inter : float option;
}

let nominal_process =
  {
    inter_vth_mv = None;
    random_vth_mv = None;
    sys_vth_mv = None;
    leff_rel_inter = None;
  }

(* Overrides are quantized so %g printing round-trips exactly. *)
let q_mv v = Float.round (v *. 10.0) /. 10.0
let q_rel v = Float.round (v *. 1000.0) /. 1000.0

let random_process rng =
  let maybe q lo hi =
    if Rng.float rng < 0.5 then Some (q (Rng.uniform rng ~lo ~hi)) else None
  in
  (* Explicit sequencing: record-field evaluation order is
     unspecified, and the draw order is part of the replay contract. *)
  let inter_vth_mv = maybe q_mv 0.0 80.0 in
  let random_vth_mv = maybe q_mv 0.0 80.0 in
  let sys_vth_mv = maybe q_mv 0.0 80.0 in
  let leff_rel_inter = maybe q_rel 0.0 0.15 in
  { inter_vth_mv; random_vth_mv; sys_vth_mv; leff_rel_inter }

let apply_process tech p =
  let t =
    match p.inter_vth_mv with
    | None -> tech
    | Some mv -> Tech.with_inter_vth tech ~sigma_mv:mv
  in
  let t =
    match p.random_vth_mv with
    | None -> t
    | Some mv -> Tech.with_random_vth t ~sigma_mv:mv
  in
  let t =
    match p.sys_vth_mv with
    | None -> t
    | Some mv -> Tech.with_sys_vth t ~sigma_mv:mv
  in
  match p.leff_rel_inter with
  | None -> t
  | Some r -> { t with Tech.sigma_leff_rel_inter = r }

let process_to_string p =
  let parts =
    List.filter_map
      (fun (k, v) -> Option.map (fun x -> Printf.sprintf "%s=%g" k x) v)
      [
        ("inter", p.inter_vth_mv); ("random", p.random_vth_mv);
        ("sys", p.sys_vth_mv); ("leff", p.leff_rel_inter);
      ]
  in
  match parts with [] -> "nominal" | _ -> String.concat " " parts

let process_of_string s =
  let s = String.trim s in
  if s = "nominal" || s = "" then Ok nominal_process
  else
    let parse_part acc part =
      match acc with
      | Error _ as e -> e
      | Ok p -> (
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "malformed override %S" part)
          | Some i -> (
              let key = String.sub part 0 i in
              let v = String.sub part (i + 1) (String.length part - i - 1) in
              match float_of_string_opt v with
              | None -> Error (Printf.sprintf "bad float %S" v)
              | Some f when not (Float.is_finite f) ->
                  Error (Printf.sprintf "non-finite override %S" part)
              | Some f -> (
                  match key with
                  | "inter" -> Ok { p with inter_vth_mv = Some f }
                  | "random" -> Ok { p with random_vth_mv = Some f }
                  | "sys" -> Ok { p with sys_vth_mv = Some f }
                  | "leff" -> Ok { p with leff_rel_inter = Some f }
                  | _ -> Error (Printf.sprintf "unknown override %S" key))))
    in
    List.fold_left parse_part (Ok nominal_process)
      (List.filter (fun x -> x <> "") (String.split_on_char ' ' s))
