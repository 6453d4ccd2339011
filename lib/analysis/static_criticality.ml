module Netlist = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta
module Topo = Spv_circuit.Topo

type t = {
  levels : int array;
  lo_sta : Sta.result;
  hi_sta : Sta.result;
  through_hi : float array;
  lo_delay : float;
  active : bool array;
  n_gates : int;
  n_active_gates : int;
}

let analyse ?(k = 6.0) tech net =
  let n = Netlist.n_nodes net in
  let levels = Topo.levels net in
  let f_lo, f_hi = Bounds.corner_factors ~k tech net in
  let lo_sta = Sta.run_with_factors tech net ~factors:f_lo in
  let hi_sta = Sta.run_with_factors tech net ~factors:f_hi in
  (* Longest remaining hi-corner gate-path to any primary output. *)
  let down = Sta.down net hi_sta.Sta.gate_delays in
  let through_hi =
    Array.init n (fun i -> hi_sta.Sta.arrival.(i) +. down.(i))
  in
  let lo_delay = lo_sta.Sta.delay in
  (* Conservative float margin: only mark a gate inactive when the
     hi-side bound is clearly below the lo-side delay. *)
  let margin = 1e-9 +. (1e-12 *. Float.abs lo_delay) in
  let active =
    Array.init n (fun i ->
        if not (Netlist.is_gate net i) then true
        else through_hi.(i) >= lo_delay -. margin)
  in
  let n_gates = Netlist.n_gates net in
  let n_active_gates =
    Array.fold_left
      (fun acc i -> if active.(i) then acc + 1 else acc)
      0 (Netlist.gate_ids net)
  in
  { levels; lo_sta; hi_sta; through_hi; lo_delay; active; n_gates;
    n_active_gates }

let cone t =
  let acc = ref [] in
  (* Gates only: inputs are level 0, gates are level >= 1. *)
  for i = Array.length t.active - 1 downto 0 do
    if t.active.(i) && t.levels.(i) > 0 then acc := i :: !acc
  done;
  !acc

let prunable_fraction t =
  if t.n_gates = 0 then 0.0
  else float_of_int (t.n_gates - t.n_active_gates) /. float_of_int t.n_gates

let findings ?stage t =
  let location =
    match stage with None -> Report.Pipeline | Some s -> Report.Stage s
  in
  let depth = Array.fold_left max 0 t.levels in
  [
    Report.finding ~location ~pass:"criticality"
      ~data:
        [
          ("gates", Report.Int t.n_gates);
          ("possibly_critical", Report.Int t.n_active_gates);
          ("prunable_fraction", Report.Num (prunable_fraction t));
          ("depth", Report.Int depth);
          ("lo_delay", Report.Num t.lo_delay);
          ("hi_delay", Report.Num t.hi_sta.Sta.delay);
        ]
      "static criticality cone";
  ]
