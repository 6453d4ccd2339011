type result = {
  arrival : float array;
  gate_delays : float array;
  delay : float;
  critical_output : int;
  critical_path : int list;
}

let loads net ~output_load =
  let n = Netlist.n_nodes net in
  let loads = Array.make n 0.0 in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) (Netlist.outputs net);
  for i = 0 to n - 1 do
    let fanout_cap =
      List.fold_left
        (fun acc j ->
          match Netlist.node net j with
          | Netlist.Gate { kind; _ } ->
              acc +. Cell.input_cap kind ~size:(Netlist.size net j)
          | Netlist.Primary_input _ -> acc)
        0.0 (Netlist.fanouts net i)
    in
    let po_cap = if is_output.(i) then output_load else 0.0 in
    loads.(i) <- fanout_cap +. po_cap
  done;
  loads

let run_internal ~output_load (tech : Spv_process.Tech.t) net ~factors =
  let n = Netlist.n_nodes net in
  let loads = loads net ~output_load in
  let arrival = Array.make n 0.0 in
  let gate_delays = Array.make n 0.0 in
  for i = 0 to n - 1 do
    match Netlist.node net i with
    | Netlist.Primary_input _ -> ()
    | Netlist.Gate { kind; fanin } ->
        let d =
          tech.tau
          *. (Cell.parasitic kind +. (loads.(i) /. Netlist.size net i))
        in
        let d =
          match factors with None -> d | Some f -> d *. f.(i)
        in
        gate_delays.(i) <- d;
        let latest =
          Array.fold_left (fun acc f -> Float.max acc arrival.(f)) 0.0 fanin
        in
        arrival.(i) <- latest +. d
  done;
  let critical_output =
    Array.fold_left
      (fun best o -> if arrival.(o) > arrival.(best) then o else best)
      (Netlist.outputs net).(0)
      (Netlist.outputs net)
  in
  (* Trace the critical path back through the latest-arriving fanins. *)
  let rec trace i acc =
    match Netlist.node net i with
    | Netlist.Primary_input _ -> acc
    | Netlist.Gate { fanin; _ } ->
        let pred =
          Array.fold_left
            (fun best f ->
              match best with
              | None -> Some f
              | Some b -> if arrival.(f) > arrival.(b) then Some f else best)
            None fanin
        in
        let acc = i :: acc in
        (match pred with
        | None -> acc
        | Some p -> trace p acc)
  in
  let critical_path =
    match Netlist.node net critical_output with
    | Netlist.Gate _ -> trace critical_output []
    | Netlist.Primary_input _ -> []
  in
  {
    arrival;
    gate_delays;
    delay = arrival.(critical_output);
    critical_output;
    critical_path;
  }

let run ?(output_load = 4.0) tech net =
  run_internal ~output_load tech net ~factors:None

let run_with_factors ?(output_load = 4.0) tech net ~factors =
  if Array.length factors <> Netlist.n_nodes net then
    invalid_arg "Sta.run_with_factors: factors length mismatch";
  run_internal ~output_load tech net ~factors:(Some factors)

let path_delay result path =
  List.fold_left (fun acc i -> acc +. result.gate_delays.(i)) 0.0 path

type min_result = {
  min_arrival : float array;
  min_delay : float;
  shortest_output : int;
  shortest_path : int list;
}

let run_min ?(output_load = 4.0) (tech : Spv_process.Tech.t) net =
  let n = Netlist.n_nodes net in
  let loads = loads net ~output_load in
  let min_arrival = Array.make n 0.0 in
  let gate_delays = Array.make n 0.0 in
  for i = 0 to n - 1 do
    match Netlist.node net i with
    | Netlist.Primary_input _ -> ()
    | Netlist.Gate { kind; fanin } ->
        let d =
          tech.Spv_process.Tech.tau
          *. (Cell.parasitic kind +. (loads.(i) /. Netlist.size net i))
        in
        gate_delays.(i) <- d;
        let earliest =
          Array.fold_left
            (fun acc f -> Float.min acc min_arrival.(f))
            infinity fanin
        in
        min_arrival.(i) <- earliest +. d
  done;
  let shortest_output =
    Array.fold_left
      (fun best o -> if min_arrival.(o) < min_arrival.(best) then o else best)
      (Netlist.outputs net).(0)
      (Netlist.outputs net)
  in
  let rec trace i acc =
    match Netlist.node net i with
    | Netlist.Primary_input _ -> acc
    | Netlist.Gate { fanin; _ } ->
        let pred =
          Array.fold_left
            (fun best f ->
              match best with
              | None -> Some f
              | Some b -> if min_arrival.(f) < min_arrival.(b) then Some f else best)
            None fanin
        in
        let acc = i :: acc in
        (match pred with None -> acc | Some p -> trace p acc)
  in
  let shortest_path =
    match Netlist.node net shortest_output with
    | Netlist.Gate _ -> trace shortest_output []
    | Netlist.Primary_input _ -> []
  in
  { min_arrival; min_delay = min_arrival.(shortest_output); shortest_output;
    shortest_path }
