module Net = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta
module Gd = Spv_process.Gate_delay

type assignment = {
  high_vth : bool array;
  delay_penalty : float;
  vth_offset : float;
}

let all_low net ~delay_penalty ~vth_offset =
  if delay_penalty < 1.0 then invalid_arg "Multi_vth: delay_penalty < 1";
  if vth_offset <= 0.0 then invalid_arg "Multi_vth: vth_offset <= 0";
  {
    high_vth = Array.make (Net.n_nodes net) false;
    delay_penalty;
    vth_offset;
  }

let n_high a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a.high_vth

let delay_factors net a =
  if Array.length a.high_vth <> Net.n_nodes net then
    invalid_arg "Multi_vth.delay_factors: assignment size mismatch";
  Array.map (fun h -> if h then a.delay_penalty else 1.0) a.high_vth

let stat_delay ?ff tech net a ~z =
  let sta =
    Sta.run_with_factors tech net ~factors:(delay_factors net a)
  in
  let comb =
    List.fold_left
      (fun acc i ->
        Gd.add acc
          (Gd.of_nominal tech ~nominal:sta.Sta.gate_delays.(i)
             ~size:(Net.size net i)))
      Gd.zero sta.Sta.critical_path
  in
  let total =
    match ff with
    | None -> comb
    | Some ff -> Gd.add comb (Spv_process.Flipflop.overhead ff)
  in
  total.Gd.nominal +. (z *. Gd.total_sigma total)

(* Expected gate leakage: area proxy x lognormal random-Vth mean,
   x the high-Vth suppression where assigned. *)
let leakage (tech : Spv_process.Tech.t) net a =
  let nvt =
    Spv_circuit.Power.subthreshold_slope_factor
    *. Spv_circuit.Power.thermal_voltage
  in
  let acc = ref 0.0 in
  Array.iter
    (fun i ->
      match Net.node net i with
      | Net.Primary_input _ -> ()
      | Net.Gate { kind; _ } ->
          let size = Net.size net i in
          let s_r = tech.Spv_process.Tech.sigma_vth_rand /. sqrt size /. nvt in
          let base =
            Spv_circuit.Cell.area_per_size kind *. size
            *. exp (s_r *. s_r /. 2.0)
          in
          let supp =
            if a.high_vth.(i) then
              Spv_circuit.Power.leakage_factor tech ~dvth:a.vth_offset
            else 1.0
          in
          acc := !acc +. (base *. supp))
    (Net.gate_ids net);
  !acc

type result = {
  assignment : assignment;
  swapped : int;
  leakage_before : float;
  leakage_after : float;
  stat_delay_after : float;
}

let optimise ?ff ?(delay_penalty = 1.15)
    ?(vth_offset = 0.08) tech net ~t_target ~z =
  if not (Float.is_finite t_target) then
    invalid_arg "Multi_vth.optimise: non-finite t_target";
  let a = all_low net ~delay_penalty ~vth_offset in
  let leakage_before = leakage tech net a in
  if stat_delay ?ff tech net a ~z > t_target then
    invalid_arg "Multi_vth.optimise: all-low design misses the target";
  (* Visit gates in ascending criticality: the most off-path gates have
     the most slack to sell. *)
  let block = Spv_circuit.Block_ssta.run tech net in
  let order = Array.copy (Net.gate_ids net) in
  Array.sort
    (fun i j ->
      compare block.Spv_circuit.Block_ssta.criticality.(i)
        block.Spv_circuit.Block_ssta.criticality.(j))
    order;
  let swapped = ref 0 in
  Array.iter
    (fun i ->
      a.high_vth.(i) <- true;
      if stat_delay ?ff tech net a ~z <= t_target then incr swapped
      else a.high_vth.(i) <- false)
    order;
  {
    assignment = a;
    swapped = !swapped;
    leakage_before;
    leakage_after = leakage tech net a;
    stat_delay_after = stat_delay ?ff tech net a ~z;
  }
