module Netlist = Spv_circuit.Netlist

let input_labels net =
  Array.map
    (fun i ->
      match Netlist.node net i with
      | Netlist.Primary_input label -> label
      | Netlist.Gate _ -> assert false)
    (Netlist.input_ids net)

let compatible a b =
  let la = List.sort compare (Array.to_list (input_labels a)) in
  let lb = List.sort compare (Array.to_list (input_labels b)) in
  la = lb
  && Array.length (Netlist.outputs a) = Array.length (Netlist.outputs b)

let outputs_on net ~inputs =
  let values = Netlist.eval net ~inputs in
  Array.map (fun o -> values.(o)) (Netlist.outputs net)

let check ?(vectors = 256) a b rng =
  if vectors <= 0 then invalid_arg "Equivalence.check: vectors <= 0";
  if not (compatible a b) then
    invalid_arg "Equivalence.check: incompatible interfaces";
  let labels_a = input_labels a in
  let labels_b = input_labels b in
  (* Permutation mapping a-input order onto b-input order. *)
  let index_b = Hashtbl.create 16 in
  Array.iteri (fun k l -> Hashtbl.replace index_b l k) labels_b;
  let to_b inputs =
    let out = Array.make (Array.length inputs) false in
    Array.iteri
      (fun k l -> out.(Hashtbl.find index_b l) <- inputs.(k))
      labels_a;
    out
  in
  let n_in = Array.length labels_a in
  let rec go remaining =
    if remaining = 0 then Ok ()
    else begin
      let inputs = Array.init n_in (fun _ -> Spv_stats.Rng.float rng < 0.5) in
      if outputs_on a ~inputs = outputs_on b ~inputs:(to_b inputs) then
        go (remaining - 1)
      else Error inputs
    end
  in
  go vectors
