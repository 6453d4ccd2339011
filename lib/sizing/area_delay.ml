module Balance = Spv_core.Balance
module Gd = Spv_process.Gate_delay

type profile = { d_fast : float; model : Balance.stage_model }

let profile ?options ?ff ?(n_points = 9) tech net ~z =
  if n_points < 2 then invalid_arg "Area_delay.curve_points: n_points < 2";
  let snapshot = Spv_circuit.Netlist.sizes_snapshot net in
  let d_fast = Lagrangian.minimum_achievable_delay ?options ?ff tech net ~z in
  let d_slow = Lagrangian.relaxed_delay ?options ?ff tech net ~z in
  if d_fast >= d_slow then
    failwith "Area_delay.curve_points: sizing has no delay range to trade";
  (* Slight inset so every grid target is actually reachable. *)
  let lo = d_fast *. 1.01 and hi = d_slow *. 0.995 in
  let targets =
    Array.init n_points (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n_points - 1)))
  in
  let raw =
    Array.map
      (fun t_target ->
        let report = Lagrangian.size_stage ?options ?ff tech net ~t_target ~z in
        {
          Balance.delay = report.Lagrangian.achieved.Gd.nominal;
          area = report.Lagrangian.area;
          decomposed = report.Lagrangian.achieved;
        })
      targets
  in
  Spv_circuit.Netlist.restore_sizes net snapshot;
  (* Keep a strictly monotone frontier: increasing delay must come with
     strictly decreasing area. *)
  let sorted = Array.copy raw in
  Array.sort (fun a b -> compare a.Balance.delay b.Balance.delay) sorted;
  let frontier =
    Array.fold_left
      (fun acc p ->
        match acc with
        | [] -> [ p ]
        | last :: _ ->
            if
              p.Balance.delay > last.Balance.delay +. 1e-9
              && p.Balance.area < last.Balance.area -. 1e-9
            then p :: acc
            else acc)
      [] sorted
  in
  let pts = Array.of_list (List.rev frontier) in
  if Array.length pts < 2 then
    failwith "Area_delay.curve_points: degenerate curve (fewer than 2 points)";
  { d_fast; model = Balance.stage_model ~name:(Spv_circuit.Netlist.name net) pts }

let stage_model ?options ?ff ?n_points tech net ~z =
  (profile ?options ?ff ?n_points tech net ~z).model

let curve_points ?options ?ff ?n_points tech net ~z =
  Balance.points (stage_model ?options ?ff ?n_points tech net ~z)

let normalised pts =
  let n = Array.length pts in
  if n = 0 then invalid_arg "Area_delay.normalised: empty";
  let ref_p = pts.(n - 1) in
  Array.map
    (fun p ->
      (p.Balance.delay /. ref_p.Balance.delay, p.Balance.area /. ref_p.Balance.area))
    pts
