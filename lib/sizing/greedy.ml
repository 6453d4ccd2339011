module Net = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta
module Cell = Spv_circuit.Cell
module Gd = Spv_process.Gate_delay

type options = {
  min_size : float;
  max_size : float;
  step : float;
  max_moves : int;
}

let default_options =
  { min_size = 1.0; max_size = 16.0; step = 1.3; max_moves = 2000 }

type report = {
  moves : int;
  converged : bool;
  achieved : Gd.t;
  stat_delay : float;
  area : float;
}

(* The stage's critical-path SSTA model and its [mu + z sigma]: the
   one stage a trial move changes, without building a pipeline
   context around it. *)
let stat_delay_of ?ff tech net ~z =
  let total =
    (Spv_circuit.Ssta.analyse_stage ?ff tech net).Spv_circuit.Ssta.total
  in
  let g = Gd.to_gaussian total in
  (total, Spv_stats.Gaussian.mu g +. (z *. Spv_stats.Gaussian.sigma g))

let size_stage ?options ?ff tech net ~t_target ~z =
  let options = Option.value options ~default:default_options in
  if t_target <= 0.0 then invalid_arg "Greedy.size_stage: t_target <= 0";
  Array.iter (fun i -> Net.set_size net i options.min_size) (Net.gate_ids net);
  let moves = ref 0 in
  let current = ref (snd (stat_delay_of ?ff tech net ~z)) in
  let progress = ref true in
  while !current > t_target && !progress && !moves < options.max_moves do
    progress := false;
    (* Candidates: gates on the current nominal critical path, plus
       their gate fanins — upsizing a critical gate loads its (also
       critical) driver, so sometimes the useful move is one level
       back. *)
    let sta = Sta.run tech net in
    let candidates =
      let seen = Hashtbl.create 64 in
      List.iter
        (fun i ->
          Hashtbl.replace seen i ();
          match Net.node net i with
          | Net.Gate { fanin; _ } ->
              Array.iter
                (fun f -> if Net.is_gate net f then Hashtbl.replace seen f ())
                fanin
          | Net.Primary_input _ -> ())
        sta.Sta.critical_path;
      Hashtbl.fold (fun i () acc -> i :: acc) seen []
    in
    (* The accepted move is the maximum-gain improving move, first
       among exact gain ties in candidate order. *)
    let best : (int * float * float) option ref = ref None in
    List.iter
      (fun i ->
        let size = Net.size net i in
        let bigger = Float.min options.max_size (size *. options.step) in
        if bigger > size +. 1e-12 then begin
          let darea =
            (match Net.node net i with
            | Net.Gate { kind; _ } -> Cell.area_per_size kind
            | Net.Primary_input _ -> 0.0)
            *. (bigger -. size)
          in
          Net.set_size net i bigger;
          let _, trial = stat_delay_of ?ff tech net ~z in
          Net.set_size net i size;
          let gain = (!current -. trial) /. Float.max darea 1e-9 in
          match !best with
          | Some (_, best_gain, _) when gain <= best_gain -> ()
          | _ -> if trial < !current then best := Some (i, gain, bigger)
        end)
      candidates;
    (match !best with
    | Some (i, _, bigger) ->
        Net.set_size net i bigger;
        current := snd (stat_delay_of ?ff tech net ~z);
        incr moves;
        progress := true
    | None -> ())
  done;
  let achieved, stat_delay = stat_delay_of ?ff tech net ~z in
  let converged = stat_delay <= t_target *. 1.005 in
  let g = Gd.to_gaussian achieved in
  Certify_hook.postcondition ~where:"Greedy.size_stage" ~t_target ~z ~converged
    ~mu:g.Spv_stats.Gaussian.mu ~sigma:g.Spv_stats.Gaussian.sigma;
  {
    moves = !moves;
    converged;
    achieved;
    stat_delay;
    area = Net.area net;
  }

let compare_with_lagrangian ?ff tech net ~t_target ~z =
  let copy = Net.copy net in
  let greedy = size_stage ?ff tech copy ~t_target ~z in
  let lagrangian = Lagrangian.size_stage ?ff tech net ~t_target ~z in
  (greedy, lagrangian)
