module G = Spv_stats.Gaussian
module Gd = Spv_process.Gate_delay

let negate g = G.make ~mu:(-.G.mu g) ~sigma:(G.sigma g)

let min2 g1 g2 ~rho = negate (Clark.max2 (negate g1) (negate g2) ~rho)

let min_n ?order gs ~corr =
  negate (Clark.max_n ?order (Array.map negate gs) ~corr)

let short_path_delay tech net =
  let early = Spv_circuit.Sta.run_min tech net in
  Spv_circuit.Ssta.compose_path tech net
    ~gate_delays:early.Spv_circuit.Sta.gate_delays
    early.Spv_circuit.Sta.critical_path

let race_margin tech ~(ff : Spv_process.Flipflop.t) net =
  (* clk-to-Q and the data path sit in the same locale: their shared
     variation components add coherently, so the fast tail of the race
     margin is fatter than independence would give. *)
  Gd.add ff.Spv_process.Flipflop.clk_to_q (short_path_delay tech net)

let check_hold ~where hold_ps =
  if not (Float.is_finite hold_ps) then invalid_arg (where ^ ": non-finite hold");
  if hold_ps < 0.0 then invalid_arg (where ^ ": negative hold")

let hold_yield_stage tech ~ff ~hold_ps net =
  check_hold ~where:"Hold.hold_yield_stage" hold_ps;
  let margin = Gd.to_gaussian (race_margin tech ~ff net) in
  if G.sigma margin = 0.0 then if G.mu margin >= hold_ps then 1.0 else 0.0
  else G.sf margin hold_ps

let hold_yield_pipeline ?corr_length ?(pitch = 1.0) tech ~ff
    ~hold_ps nets =
  let n = Array.length nets in
  if n = 0 then invalid_arg "Hold.hold_yield_pipeline: no stages";
  check_hold ~where:"Hold.hold_yield_pipeline" hold_ps;
  let corr_length =
    Option.value corr_length ~default:tech.Spv_process.Tech.corr_length
  in
  let positions = Spv_process.Spatial.row_positions ~n ~pitch in
  let margins = Array.map (race_margin tech ~ff) nets in
  let corr =
    Spv_stats.Correlation.of_function ~n (fun i j ->
        let sys_rho =
          exp
            (-.Spv_process.Spatial.distance positions.(i) positions.(j)
             /. corr_length)
        in
        Gd.correlation margins.(i) margins.(j) ~sys_rho)
  in
  let worst = min_n (Array.map Gd.to_gaussian margins) ~corr in
  if G.sigma worst = 0.0 then if G.mu worst >= hold_ps then 1.0 else 0.0
  else G.sf worst hold_ps

let combined_yield ~setup ~hold =
  if setup < 0.0 || setup > 1.0 || hold < 0.0 || hold > 1.0 then
    invalid_arg "Hold.combined_yield: yields outside [0,1]";
  setup *. hold
