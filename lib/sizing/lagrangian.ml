module Net = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta
module Ssta = Spv_circuit.Ssta
module Cell = Spv_circuit.Cell
module Gd = Spv_process.Gate_delay

type options = {
  min_size : float;
  max_size : float;
  max_iterations : int;
  tolerance : float;
  theta_fraction : float;
}

let default_options =
  {
    min_size = 1.0;
    max_size = 16.0;
    max_iterations = 120;
    tolerance = 5e-3;
    theta_fraction = 0.05;
  }

type report = {
  iterations : int;
  converged : bool;
  achieved : Gd.t;
  stat_delay : float;
  area : float;
  lambda : float;
}

let stat_of (total : Gd.t) ~z = total.Gd.nominal +. (z *. Gd.total_sigma total)

let statistical_delay ?ff tech net ~z =
  stat_of (Ssta.analyse_stage ?ff tech net).Ssta.total ~z

(* Backward pass: required times and slacks given an STA result.  The
   required time at every primary output is the overall delay, so the
   global critical path has zero slack. *)
let slacks net (sta : Sta.result) =
  let required =
    Sta.backward
      (module struct
        type t = float

        let seed i = if Net.is_output net i then sta.Sta.delay else infinity

        let join req j req_j =
          let candidate = req_j -. sta.Sta.gate_delays.(j) in
          if candidate < req then candidate else req

        let finish _ req = req
      end)
      net
  in
  Array.init (Net.n_nodes net) (fun i ->
      if required.(i) = infinity then infinity
      else required.(i) -. sta.Sta.arrival.(i))

let size_stage ?options ?ff tech net ~t_target ~z =
  let opts = Option.value options ~default:default_options in
  if t_target <= 0.0 then invalid_arg "Lagrangian.size_stage: t_target <= 0";
  let gate_ids = Net.gate_ids net in
  (* Fresh start from minimum sizes keeps runs deterministic and
     reproducible regardless of the netlist's previous state. *)
  Array.iter (fun i -> Net.set_size net i opts.min_size) gate_ids;
  let tau = tech.Spv_process.Tech.tau in
  (* One timing per sizing: the SSTA that scores a sizing carries the
     nominal STA the next iteration's slacks are computed from. *)
  let analysis = ref (Ssta.analyse_stage ?ff tech net) in
  let best_sizes = ref (Net.sizes_snapshot net) in
  let best_feasible = ref None in
  let best_delay = ref (stat_of !analysis.Ssta.total ~z) in
  let lambda = ref 1.0 in
  let iterations = ref 0 in
  let clamp x = Float.max opts.min_size (Float.min opts.max_size x) in
  (try
     for iter = 1 to opts.max_iterations do
       iterations := iter;
       let sta = !analysis.Ssta.nominal in
       let theta = Float.max (opts.theta_fraction *. sta.Sta.delay) 1e-9 in
       let weight =
         Array.map
           (fun s -> if s = infinity then 0.0 else exp (-.s /. theta))
           (slacks net sta)
       in
       (* Gauss-Seidel coordinate pass in reverse topological order:
          loads of downstream gates are already refreshed when their
          drivers update. *)
       for k = Array.length gate_ids - 1 downto 0 do
         let i = gate_ids.(k) in
         match Net.node net i with
         | Net.Primary_input _ -> ()
         | Net.Gate { kind; fanin } ->
             let area_coeff = Cell.area_per_size kind in
             let g_i = Cell.logical_effort kind in
             let fanin_pressure =
               Array.fold_left
                 (fun acc f ->
                   if Net.is_gate net f then
                     acc +. (weight.(f) *. g_i /. Net.size net f)
                   else acc)
                 0.0 fanin
             in
             let numerator = !lambda *. tau *. weight.(i) *. Net.load net i in
             let denominator =
               area_coeff +. (!lambda *. tau *. fanin_pressure)
             in
             let x_star =
               if numerator <= 0.0 then opts.min_size
               else sqrt (numerator /. denominator)
             in
             let x_new = clamp (0.5 *. (Net.size net i +. x_star)) in
             Net.set_size net i x_new
       done;
       analysis := Ssta.analyse_stage ?ff tech net;
       let d = stat_of !analysis.Ssta.total ~z in
       let area = Net.area net in
       (match !best_feasible with
       | Some (_, best_area) when d <= t_target && area < best_area ->
           best_feasible := Some (Net.sizes_snapshot net, area)
       | None when d <= t_target ->
           best_feasible := Some (Net.sizes_snapshot net, area)
       | _ -> ());
       if d < !best_delay then begin
         best_delay := d;
         best_sizes := Net.sizes_snapshot net
       end;
       (* Multiplicative subgradient on the dual variable. *)
       let ratio = d /. t_target in
       let factor = Float.max 0.5 (Float.min 2.0 (ratio *. ratio)) in
       lambda := Float.max 1e-6 (Float.min 1e9 (!lambda *. factor));
       if
         abs_float (d -. t_target) /. t_target < opts.tolerance
         && !best_feasible <> None && iter > 10
       then raise Exit
     done
   with Exit -> ());
  (match !best_feasible with
  | Some (sizes, _) -> Net.restore_sizes net sizes
  | None -> Net.restore_sizes net !best_sizes);
  let achieved = (Ssta.analyse_stage ?ff tech net).Ssta.total in
  let stat_delay = stat_of achieved ~z in
  let converged = stat_delay <= t_target *. (1.0 +. opts.tolerance) in
  let g = Gd.to_gaussian achieved in
  Certify_hook.postcondition ~where:"Lagrangian.size_stage" ~t_target ~z ~converged
    ~mu:g.Spv_stats.Gaussian.mu ~sigma:g.Spv_stats.Gaussian.sigma;
  {
    iterations = !iterations;
    converged;
    achieved;
    stat_delay;
    area = Net.area net;
    lambda = !lambda;
  }

let minimum_achievable_delay ?options ?ff tech net ~z =
  let snapshot = Net.sizes_snapshot net in
  let opts = Option.value options ~default:default_options in
  (* An unreachable target drives the sizer to its fastest design. *)
  let tiny = 1e-3 in
  let report = size_stage ~options:opts ?ff tech net ~t_target:tiny ~z in
  Net.restore_sizes net snapshot;
  report.stat_delay

let relaxed_delay ?options ?ff tech net ~z =
  let opts = Option.value options ~default:default_options in
  let snapshot = Net.sizes_snapshot net in
  Array.iter
    (fun i -> Net.set_size net i opts.min_size)
    (Net.gate_ids net);
  let d = statistical_delay ?ff tech net ~z in
  Net.restore_sizes net snapshot;
  d
