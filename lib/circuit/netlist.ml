type node =
  | Primary_input of string
  | Gate of { kind : Cell.kind; fanin : int array }

type t = {
  name : string;
  nodes : node array;
  outputs : int array;
  sizes : float array;
  fanin_start : int array;
  fanin_ids : int array;
  fanout_start : int array;
  fanout_ids : int array;
  is_output : bool array;
  gate_ids : int array;
  input_ids : int array;
  loads : float array option Atomic.t;
      (* built on the first timing query, never mutated: a resize drops
         it *)
}

let output_load = 4.0

let make ~name ~nodes ~outputs ~sizes =
  let n = Array.length nodes in
  if Array.length sizes <> n then
    invalid_arg "Netlist.make: sizes length mismatch";
  (* The CSR view and the id arrays are counted during validation and
     filled in one more pass, which keeps [make] as cheap as building
     fanout lists was: the fuzzer builds thousands of netlists that are
     never timed. *)
  let fanin_start = Array.make (n + 1) 0 in
  let fanout_start = Array.make (n + 1) 0 in
  let n_inputs = ref 0 in
  Array.iteri
    (fun i node ->
      match node with
      | Primary_input _ ->
          fanin_start.(i + 1) <- fanin_start.(i);
          incr n_inputs
      | Gate { kind; fanin } ->
          if Array.length fanin <> Cell.arity kind then
            invalid_arg
              (Printf.sprintf "Netlist.make: node %d: %s expects %d inputs" i
                 (Cell.name kind) (Cell.arity kind));
          fanin_start.(i + 1) <- fanin_start.(i) + Array.length fanin;
          Array.iter
            (fun f ->
              if f < 0 || f >= i then
                invalid_arg
                  (Printf.sprintf
                     "Netlist.make: node %d references %d (not topological)" i f);
              fanout_start.(f) <- fanout_start.(f) + 1)
            fanin;
          if sizes.(i) <= 0.0 then
            invalid_arg (Printf.sprintf "Netlist.make: node %d: size <= 0" i))
    nodes;
  Array.iter
    (fun o ->
      if o < 0 || o >= n then invalid_arg "Netlist.make: bad output id")
    outputs;
  if Array.length outputs = 0 then invalid_arg "Netlist.make: no outputs";
  for i = 1 to n do
    fanout_start.(i) <- fanout_start.(i) + fanout_start.(i - 1)
  done;
  (* Fanins in pin order.  [fanout_start.(f)] now ends f's range;
     filling it backwards leaves it at the range's start, with
     consumers in descending id, a consumer once per pin (later pins
     first). *)
  let fanin_ids = Array.make fanin_start.(n) 0 in
  let fanout_ids = Array.make fanout_start.(n) 0 in
  let input_ids = Array.make !n_inputs 0 in
  let gate_ids = Array.make (n - !n_inputs) 0 in
  let inputs_seen = ref 0 in
  for i = 0 to n - 1 do
    match nodes.(i) with
    | Primary_input _ ->
        input_ids.(!inputs_seen) <- i;
        incr inputs_seen
    | Gate { fanin; _ } ->
        gate_ids.(i - !inputs_seen) <- i;
        for k = 0 to Array.length fanin - 1 do
          let f = fanin.(k) in
          fanin_ids.(fanin_start.(i) + k) <- f;
          fanout_start.(f) <- fanout_start.(f) - 1;
          fanout_ids.(fanout_start.(f)) <- i
        done
  done;
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) outputs;
  {
    name;
    nodes = Array.copy nodes;
    outputs = Array.copy outputs;
    sizes = Array.copy sizes;
    fanin_start;
    fanin_ids;
    fanout_start;
    fanout_ids;
    is_output;
    gate_ids;
    input_ids;
    loads = Atomic.make None;
  }

let name t = t.name
let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let outputs t = t.outputs
let is_output t i = t.is_output.(i)
let fanin_start t = t.fanin_start
let fanin_ids t = t.fanin_ids
let n_fanouts t i = t.fanout_start.(i + 1) - t.fanout_start.(i)

let iter_fanouts t i f =
  for e = t.fanout_start.(i) to t.fanout_start.(i + 1) - 1 do
    f t.fanout_ids.(e)
  done

let exists_fanout t i p =
  let rec go e =
    e < t.fanout_start.(i + 1) && (p t.fanout_ids.(e) || go (e + 1))
  in
  go t.fanout_start.(i)

let is_gate t i =
  match t.nodes.(i) with Gate _ -> true | Primary_input _ -> false

let gate_ids t = t.gate_ids
let input_ids t = t.input_ids
let n_gates t = Array.length t.gate_ids

let size t i = t.sizes.(i)

(* ---- loads ------------------------------------------------------------ *)

let fold_load t i ~cap ~po init =
  let acc = ref init in
  for e = t.fanout_start.(i) to t.fanout_start.(i + 1) - 1 do
    acc := cap !acc t.fanout_ids.(e)
  done;
  po !acc (if t.is_output.(i) then output_load else 0.0)

let fresh_load t i =
  fold_load t i 0.0 ~po:( +. ) ~cap:(fun acc j ->
      match t.nodes.(j) with
      | Gate { kind; _ } -> acc +. Cell.input_cap kind ~size:t.sizes.(j)
      | Primary_input _ -> acc)

let loads t =
  match Atomic.get t.loads with
  | Some l -> l
  | None ->
      let l = Array.init (Array.length t.nodes) (fresh_load t) in
      Atomic.set t.loads (Some l);
      l

let load t i =
  match Atomic.get t.loads with Some l -> l.(i) | None -> fresh_load t i

let set_size t i v =
  if not (is_gate t i) then invalid_arg "Netlist.set_size: not a gate";
  if v <= 0.0 then invalid_arg "Netlist.set_size: size <= 0";
  t.sizes.(i) <- v;
  Atomic.set t.loads None

let sizes_snapshot t = Array.copy t.sizes
let restore_sizes t snapshot =
  if Array.length snapshot <> Array.length t.sizes then
    invalid_arg "Netlist.restore_sizes: length mismatch";
  Array.blit snapshot 0 t.sizes 0 (Array.length snapshot);
  Atomic.set t.loads None

let area t =
  Array.fold_left
    (fun acc i ->
      match t.nodes.(i) with
      | Gate { kind; _ } -> acc +. (Cell.area_per_size kind *. t.sizes.(i))
      | Primary_input _ -> acc)
    0.0 t.gate_ids

let copy t =
  let loads = Atomic.make (Atomic.get t.loads) in
  { t with sizes = Array.copy t.sizes; loads }

let eval t ~inputs =
  if Array.length inputs <> Array.length t.input_ids then
    invalid_arg "Netlist.eval: wrong number of input values";
  let values = Array.make (n_nodes t) false in
  let input_rank = Hashtbl.create 16 in
  Array.iteri (fun rank id -> Hashtbl.add input_rank id rank) t.input_ids;
  Array.iteri
    (fun i node ->
      match node with
      | Primary_input _ -> values.(i) <- inputs.(Hashtbl.find input_rank i)
      | Gate { kind; fanin } ->
          values.(i) <- Cell.eval kind (Array.map (fun f -> values.(f)) fanin))
    t.nodes;
  values

let pp_stats fmt t =
  Format.fprintf fmt "%s: %d inputs, %d gates, %d outputs, area %.1f"
    t.name
    (Array.length t.input_ids)
    (n_gates t)
    (Array.length t.outputs)
    (area t)
