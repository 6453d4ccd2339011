module Gd = Spv_process.Gate_delay

type t = { label : string; n_gates : int; delay : Canonical.t }
type block = { b_index : int; b_net : Netlist.t; b_gates : int array }

let default_block_gates = 2048

(* ---- hashing --------------------------------------------------------- *)

(* FNV-1a, 64-bit.  The hashes only key in-memory memo tables (they are
   never persisted), but collisions would silently reuse a wrong macro,
   so the full structure is folded in rather than a lossy summary. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let mix h x = Int64.mul (Int64.logxor h x) fnv_prime
let mix_int h i = mix h (Int64.of_int i)

let mix_string h s =
  let h = ref (mix_int h (String.length s)) in
  String.iter (fun c -> h := mix_int !h (Char.code c)) s;
  !h

let kind_code = function
  | Cell.Inv -> 0
  | Cell.Buf -> 1
  | Cell.Nand2 -> 2
  | Cell.Nand3 -> 3
  | Cell.Nand4 -> 4
  | Cell.Nor2 -> 5
  | Cell.Nor3 -> 6
  | Cell.Nor4 -> 7
  | Cell.And2 -> 8
  | Cell.Or2 -> 9
  | Cell.Xor2 -> 10
  | Cell.Xnor2 -> 11
  | Cell.Aoi21 -> 12
  | Cell.Oai21 -> 13
  | Cell.Mux2 -> 14

(* Everything except drive sizes.  Structure is immutable after
   construction, so this may be cached by physical identity. *)
let structure_hash net =
  let n = Netlist.n_nodes net in
  let h = ref (mix_int fnv_offset n) in
  for i = 0 to n - 1 do
    match Netlist.node net i with
    | Netlist.Primary_input name -> h := mix_string (mix_int !h (-1)) name
    | Netlist.Gate { kind; fanin } ->
        h := mix_int !h (kind_code kind);
        Array.iter (fun f -> h := mix_int !h f) fanin
  done;
  Array.iter (fun o -> h := mix_int (mix_int !h (-2)) o) (Netlist.outputs net);
  !h

let sizes_hash net =
  let n = Netlist.n_nodes net in
  let h = ref (mix_int fnv_offset n) in
  for i = 0 to n - 1 do
    if Netlist.is_gate net i then
      h := mix !h (Int64.bits_of_float (Netlist.size net i))
  done;
  !h

let combine a b = mix (mix fnv_offset a) b
let hash net = combine (structure_hash net) (sizes_hash net)

(* ---- level-band partition -------------------------------------------- *)

(* The structure-only half of a partition: which band each node falls
   in and which gates are exposed outputs of their band.  Depends only
   on the netlist structure and the band grain — never on drive sizes —
   so the memo table caches it per (structure, target_gates) and a
   resize re-materialises only the bands it touched. *)
type plan = {
  pl_n_bands : int;
  pl_band_of_node : int array;  (* -1 for primary inputs *)
  pl_exposed : bool array;
  pl_members : int array array;  (* parent gate ids per band, ascending *)
}

let plan ?(target_gates = default_block_gates) net =
  if target_gates <= 0 then
    invalid_arg "Macro.partition: target_gates must be positive";
  if Netlist.n_gates net = 0 then invalid_arg "Macro.partition: no gates";
  let n = Netlist.n_nodes net in
  let levels = Topo.levels net in
  let depth = Array.fold_left max 0 levels in
  (* Gates per level (level 0 is inputs only). *)
  let per_level = Array.make (depth + 1) 0 in
  for i = 0 to n - 1 do
    if Netlist.is_gate net i then
      per_level.(levels.(i)) <- per_level.(levels.(i)) + 1
  done;
  (* Greedy contiguous grouping: close a band once it reaches the
     target.  [band_of_level.(l)] maps level l >= 1 to its band. *)
  let band_of_level = Array.make (depth + 1) 0 in
  let band = ref 0 and in_band = ref 0 in
  for l = 1 to depth do
    if !in_band >= target_gates then begin
      incr band;
      in_band := 0
    end;
    band_of_level.(l) <- !band;
    in_band := !in_band + per_level.(l)
  done;
  let n_bands = !band + 1 in
  let band_of_node = Array.make n (-1) in
  for i = 0 to n - 1 do
    if levels.(i) > 0 then band_of_node.(i) <- band_of_level.(levels.(i))
  done;
  (* Which gates feed a later band (or are parent outputs)?  Those are
     the exposed outputs of their own band. *)
  let exposed =
    Array.init n (fun f ->
        Netlist.is_gate net f
        && (Netlist.is_output net f
           || Netlist.exists_fanout net f (fun i ->
                  band_of_node.(i) <> band_of_node.(f))))
  in
  let members = Array.make n_bands [] in
  for i = n - 1 downto 0 do
    let b = band_of_node.(i) in
    if b >= 0 then members.(b) <- i :: members.(b)
  done;
  {
    pl_n_bands = n_bands;
    pl_band_of_node = band_of_node;
    pl_exposed = exposed;
    pl_members = Array.map Array.of_list members;
  }

let materialise_band net pl b =
  let n = Netlist.n_nodes net in
  let band_of_node i = pl.pl_band_of_node.(i) in
  let exposed = pl.pl_exposed in
  (* Members: gates of band [b]; boundary: any fanin outside it. *)
  let member i = Netlist.is_gate net i && band_of_node i = b in
    let needed = Array.make n false in
    let gates = ref [] in
    for i = n - 1 downto 0 do
      if member i then begin
        gates := i :: !gates;
        needed.(i) <- true;
        match Netlist.node net i with
        | Netlist.Gate { fanin; _ } ->
            Array.iter (fun f -> needed.(f) <- true) fanin
        | Netlist.Primary_input _ -> assert false
      end
    done;
    let gates = Array.of_list !gates in
    (* Local ids in ascending parent order keep the DAG property. *)
    let local = Array.make n (-1) in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if needed.(i) then begin
        local.(i) <- !count;
        incr count
      end
    done;
    let nodes =
      Array.make !count (Netlist.Primary_input "")
    in
    let sizes = Array.make !count 1.0 in
    for i = 0 to n - 1 do
      if needed.(i) then begin
        let li = local.(i) in
        (if member i then
           match Netlist.node net i with
           | Netlist.Gate { kind; fanin } ->
               nodes.(li) <-
                 Netlist.Gate
                   { kind; fanin = Array.map (fun f -> local.(f)) fanin }
           | Netlist.Primary_input _ -> assert false
         else
           (* Cut fanin (parent input or earlier-band gate): a fresh
              primary input named by parent id, deterministically. *)
           nodes.(li) <- Netlist.Primary_input (Printf.sprintf "n%d" i));
        sizes.(li) <- (if Netlist.is_gate net i then Netlist.size net i else 1.0)
      end
    done;
    let outputs = ref [] in
    for i = n - 1 downto 0 do
      if member i && exposed.(i) then outputs := local.(i) :: !outputs
    done;
    (if !outputs = [] then
       (* A band of dangling gates (no consumer anywhere): expose its
          in-band sinks so the block still has a well-defined delay. *)
       for i = n - 1 downto 0 do
         if member i && not (Netlist.exists_fanout net i member) then
           outputs := local.(i) :: !outputs
       done);
    let b_net =
      Netlist.make
        ~name:(Printf.sprintf "%s.band%d" (Netlist.name net) b)
        ~nodes ~outputs:(Array.of_list !outputs) ~sizes
    in
  { b_index = b; b_net; b_gates = gates }

let partition ?target_gates net =
  let pl = plan ?target_gates net in
  Array.init pl.pl_n_bands (materialise_band net pl)

(* ---- characterisation and composition -------------------------------- *)

let characterise tech net =
  let r = Block_ssta.run tech net in
  {
    label = Netlist.name net;
    n_gates = Netlist.n_gates net;
    delay = r.Block_ssta.output;
  }

let series a b =
  {
    label = a.label ^ "+" ^ b.label;
    n_gates = a.n_gates + b.n_gates;
    delay = Canonical.add a.delay b.delay;
  }

let merge a b =
  {
    label = a.label ^ "|" ^ b.label;
    n_gates = a.n_gates + b.n_gates;
    delay = Canonical.max a.delay b.delay;
  }

let stage_delay ?ff macros =
  if Array.length macros = 0 then invalid_arg "Macro.stage_delay: no macros";
  let total = ref macros.(0) in
  for i = 1 to Array.length macros - 1 do
    total := series !total macros.(i)
  done;
  let comb = Canonical.to_gate_delay (!total).delay in
  match ff with
  | None -> comb
  | Some ff -> Gd.add comb (Spv_process.Flipflop.overhead ff)

(* ---- memo table ------------------------------------------------------ *)

module Table = struct
  type macro = t

  type stage_entry = {
    se_blocks : block array;
    se_macros : macro array;
    se_delay : Gd.t;
  }

  type key = int64 * string

  type t = {
    stages_tbl : (key, stage_entry) Hashtbl.t;
    flat_tbl : (key, Ssta.stage_analysis) Hashtbl.t;
    (* Band plans keyed on (structure_hash, target_gates): partitioning
       reads only the structure, so a resize never invalidates a plan
       and a stage-entry miss skips straight to per-band probes. *)
    plans_tbl : (int64, plan) Hashtbl.t;
    (* Band-level cache: (structure, grain, band index, member sizes)
       fully determine the materialised sub-netlist bit for bit, so a
       hit reuses both the block record and its macro without
       re-materialising anything. *)
    bands_tbl : (key, block * macro) Hashtbl.t;
    (* Physical-identity cache for the structure hash only — structure
       is immutable after [Netlist.make], so identity implies equality;
       sizes are re-hashed on every probe. *)
    mutable struct_cache : (Netlist.t * int64) list;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    {
      stages_tbl = Hashtbl.create 64;
      flat_tbl = Hashtbl.create 64;
      plans_tbl = Hashtbl.create 64;
      bands_tbl = Hashtbl.create 64;
      struct_cache = [];
      hits = 0;
      misses = 0;
    }

  let hits t = t.hits
  let misses t = t.misses

  let reset_counters t =
    t.hits <- 0;
    t.misses <- 0

  let fingerprint ?ff tech =
    let b = Buffer.create 256 in
    let f x = Buffer.add_string b (Printf.sprintf "%.17g;" x) in
    let t = tech in
    Buffer.add_string b (t.Spv_process.Tech.name ^ ";");
    f t.Spv_process.Tech.vdd;
    f t.Spv_process.Tech.vth0;
    f t.Spv_process.Tech.alpha;
    f t.Spv_process.Tech.tau;
    f t.Spv_process.Tech.leff0;
    f t.Spv_process.Tech.sigma_vth_inter;
    f t.Spv_process.Tech.sigma_vth_rand;
    f t.Spv_process.Tech.sigma_vth_sys;
    f t.Spv_process.Tech.sigma_leff_rel_inter;
    f t.Spv_process.Tech.sigma_leff_rel_sys;
    f t.Spv_process.Tech.vth_leff_coupling;
    f t.Spv_process.Tech.corr_length;
    (match ff with
    | None -> Buffer.add_string b "noff"
    | Some ff ->
        let g (d : Gd.t) =
          f d.Gd.nominal;
          f d.Gd.sigma_inter;
          f d.Gd.sigma_sys;
          f d.Gd.sigma_rand
        in
        g ff.Spv_process.Flipflop.clk_to_q;
        g ff.Spv_process.Flipflop.setup);
    Buffer.contents b

  let structure_hash_of t net =
    match List.find_opt (fun (n, _) -> n == net) t.struct_cache with
    | Some (_, sh) -> sh
    | None ->
        let sh = structure_hash net in
        t.struct_cache <- (net, sh) :: t.struct_cache;
        sh

  let stage_hash t net = combine (structure_hash_of t net) (sizes_hash net)

  let plan_for t ~target_gates net =
    let pk = mix_int (mix fnv_offset (structure_hash_of t net)) target_gates in
    match Hashtbl.find_opt t.plans_tbl pk with
    | Some pl -> pl
    | None ->
        let pl = plan ~target_gates net in
        Hashtbl.replace t.plans_tbl pk pl;
        pl

  (* FNV over the member gates' current drive sizes: together with the
     (structure, grain, index) prefix this pins the materialised band
     bit for bit. *)
  let band_key ~struct_h ~target_gates ~index net members =
    let h = mix_int (mix fnv_offset struct_h) target_gates in
    let h = mix_int h index in
    let h = ref (mix_int h (Array.length members)) in
    Array.iter
      (fun g -> h := mix !h (Int64.bits_of_float (Netlist.size net g)))
      members;
    !h

  let banded_block t ~fp ~struct_h ~target_gates tech net pl b =
    let key =
      (band_key ~struct_h ~target_gates ~index:b net pl.pl_members.(b), fp)
    in
    match Hashtbl.find_opt t.bands_tbl key with
    | Some (block, m) ->
        t.hits <- t.hits + 1;
        (block, m)
    | None ->
        t.misses <- t.misses + 1;
        let block = materialise_band net pl b in
        let m = characterise tech block.b_net in
        Hashtbl.replace t.bands_tbl key (block, m);
        (block, m)

  let stage t ~fp ?stage_key ?(target_gates = default_block_gates) tech net
      =
    let k_hash =
      match stage_key with Some k -> k | None -> stage_hash t net
    in
    let key = (k_hash, fp) in
    match Hashtbl.find_opt t.stages_tbl key with
    | Some e ->
        t.hits <- t.hits + Array.length e.se_macros;
        e
    | None ->
        let struct_h = structure_hash_of t net in
        let pl = plan_for t ~target_gates net in
        let pairs =
          Array.init pl.pl_n_bands
            (banded_block t ~fp ~struct_h ~target_gates tech net pl)
        in
        let se_blocks = Array.map fst pairs in
        let se_macros = Array.map snd pairs in
        let e = { se_blocks; se_macros; se_delay = stage_delay se_macros } in
        Hashtbl.replace t.stages_tbl key e;
        e

  let flat_analysis t ~fp ?stage_key ?ff tech net =
    let k_hash =
      match stage_key with Some k -> k | None -> stage_hash t net
    in
    let key = (k_hash, fp) in
    match Hashtbl.find_opt t.flat_tbl key with
    | Some a -> a
    | None ->
        let a = Ssta.analyse_stage ?ff tech net in
        Hashtbl.replace t.flat_tbl key a;
        a
end
