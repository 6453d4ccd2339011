module Gd = Spv_process.Gate_delay
module Tech = Spv_process.Tech

type stage_analysis = {
  comb : Gd.t;
  total : Gd.t;
  nominal : Sta.result;
}

let compose_path tech net ~gate_delays path =
  List.fold_left
    (fun acc i ->
      let size = Netlist.size net i in
      Gd.add acc (Gd.of_nominal tech ~nominal:gate_delays.(i) ~size))
    Gd.zero path

let analyse_stage ?ff tech net =
  let nominal = Sta.run tech net in
  let comb =
    compose_path tech net ~gate_delays:nominal.Sta.gate_delays
      nominal.Sta.critical_path
  in
  let total =
    match ff with
    | None -> comb
    | Some ff -> Gd.add comb (Spv_process.Flipflop.overhead ff)
  in
  { comb; total; nominal }

let stage_gaussian ?ff tech net =
  Gd.to_gaussian (analyse_stage ?ff tech net).total

(* ---- the gate-level sampling kernel --------------------------------- *)

(* What every trial of one call shares, read-only: the nominal gate
   delays, the random-Vth sigmas, the netlists' CSR view and the
   spatial factor.  Floats live in float arrays or are read straight
   from immutable fields, so a trial boxes none of them. *)
type plan = {
  tech : Tech.t;
  exact : bool;
  nets : Netlist.t array;
  nominal : Float.Array.t array;  (** per stage, per node: [Sta.gate_delay] *)
  sigma_rand : Float.Array.t array;  (** per stage, per node: RDF Vth sigma *)
  field : Spv_stats.Matrix.t;  (** Cholesky factor over stage positions *)
  ff_nominal : float option;  (** clk-to-Q + setup, when there is a flip-flop *)
  ff_sigma_rand : float;  (** one draw for the whole overhead, at size 2 *)
  s_vth : float;
  s_leff : float;
  n_normals : int;  (** per trial, after the field's *)
  max_nodes : int;
}

let plan ?(exact = false) ?(pitch = 1.0) ?ff (tech : Tech.t) nets =
  let n_stages = Array.length nets in
  if n_stages = 0 then invalid_arg "Ssta.plan: no stages";
  let positions = Spv_process.Spatial.row_positions ~n:n_stages ~pitch in
  let per_node f net = Float.Array.init (Netlist.n_nodes net) (f net) in
  let sigma_rand net i =
    if Netlist.is_gate net i then tech.sigma_vth_rand /. sqrt (Netlist.size net i)
    else 0.0
  in
  let ff_draws = if ff = None then 0 else 1 in
  {
    tech;
    exact;
    nets;
    nominal = Array.map (per_node (Sta.gate_delay tech)) nets;
    sigma_rand = Array.map (per_node sigma_rand) nets;
    field = Spv_process.Spatial.field_factor tech positions;
    ff_nominal = Option.map Spv_process.Flipflop.nominal_overhead ff;
    ff_sigma_rand = tech.sigma_vth_rand /. sqrt 2.0;
    s_vth = Tech.delay_sensitivity_vth tech;
    s_leff = Tech.delay_sensitivity_leff tech;
    n_normals =
      Array.fold_left (fun acc net -> acc + Netlist.n_gates net + ff_draws) 2 nets;
    max_nodes =
      Array.fold_left (fun acc net -> max acc (Netlist.n_nodes net)) 0 nets;
  }

(* One shard's scratch: a trial writes into these and nowhere else. *)
type sampler = {
  plan : plan;
  z : Float.Array.t;  (** the field's normals *)
  sys : Float.Array.t;  (** the field, one value per stage *)
  normals : Float.Array.t;  (** every other normal of the trial *)
  delays : Float.Array.t;  (** the stage being timed: per-node gate delays *)
  arrival : Float.Array.t;
  stages : Float.Array.t;  (** per-stage delays of the last trial *)
}

let sampler plan =
  let n_stages = Array.length plan.nets in
  let floats n = Float.Array.make n 0.0 in
  {
    plan;
    z = floats n_stages;
    sys = floats n_stages;
    normals = floats plan.n_normals;
    delays = floats plan.max_nodes;
    arrival = floats plan.max_nodes;
    stages = floats n_stages;
  }

(* One trial into [out], one entry per stage.  The draw order is the
   streams' contract (DESIGN "Sampling kernel"):
   1. the field's normals, one per stage;
   2. the inter-die Leff shift;
   3. the inter-die Vth shift;
   4. per stage in order, one random Vth normal per gate in [gate_ids]
      order, then the flip-flop's.
   Each shift is summed as [Variation]'s shift records were,
   [inter + (sys + rand)] with a zero random Leff, and the linear
   factor is [1 + s_vth dVth + s_leff dLeff] left to right. *)
let draw_stage_delays_into s rng out =
  let p = s.plan in
  let tech = p.tech and normals = s.normals in
  let n_stages = Array.length p.nets in
  if Float.Array.length out <> n_stages then
    invalid_arg "Ssta.draw_stage_delays_into: one entry per stage expected";
  Spv_stats.Rng.gaussians_into rng s.z ~pos:0 ~len:n_stages;
  Spv_stats.Rng.gaussians_into rng normals ~pos:0 ~len:p.n_normals;
  Spv_stats.Matrix.lower_mat_vec_into p.field s.z s.sys;
  let inter_leff =
    0.0 +. (tech.sigma_leff_rel_inter *. Float.Array.unsafe_get normals 0)
  in
  let inter_vth =
    0.0 +. (tech.sigma_vth_inter *. Float.Array.unsafe_get normals 1)
  in
  let next = ref 2 in
  for st = 0 to n_stages - 1 do
    let net = p.nets.(st) in
    let field = Float.Array.unsafe_get s.sys st in
    let sys_vth = tech.sigma_vth_sys *. field in
    let dleff = inter_leff +. ((tech.sigma_leff_rel_sys *. field) +. 0.0) in
    let leff_term = p.s_leff *. dleff in
    let nominal = p.nominal.(st) and sigma_rand = p.sigma_rand.(st) in
    let gates = Netlist.gate_ids net in
    for k = 0 to Array.length gates - 1 do
      let g = gates.(k) in
      let rand =
        0.0
        +. (Float.Array.unsafe_get sigma_rand g
           *. Float.Array.unsafe_get normals (!next + k))
      in
      let dvth = inter_vth +. (sys_vth +. rand) in
      (* Each branch stores its own product: a float merged from an
         [if] whose one arm is a cross-module call would be boxed. *)
      if p.exact then
        Float.Array.unsafe_set s.delays g
          (Float.Array.unsafe_get nominal g
          *. Spv_process.Alpha_power.delay_factor tech ~dvth ~dleff_rel:dleff)
      else
        Float.Array.unsafe_set s.delays g
          (Float.Array.unsafe_get nominal g
          *. (1.0 +. (p.s_vth *. dvth) +. leff_term))
    done;
    next := !next + Array.length gates;
    let comb = Sta.late_delay net ~delays:s.delays ~arrival:s.arrival in
    match p.ff_nominal with
    | None -> Float.Array.unsafe_set out st (comb +. 0.0)
    | Some ff_nominal ->
        let rand =
          0.0 +. (p.ff_sigma_rand *. Float.Array.unsafe_get normals !next)
        in
        incr next;
        let dvth = inter_vth +. (sys_vth +. rand) in
        if p.exact then
          Float.Array.unsafe_set out st
            (comb
            +. ff_nominal
               *. Spv_process.Alpha_power.delay_factor tech ~dvth ~dleff_rel:dleff)
        else
          Float.Array.unsafe_set out st
            (comb +. (ff_nominal *. (1.0 +. (p.s_vth *. dvth) +. leff_term)))
  done

let draw_pipeline_delay s rng =
  draw_stage_delays_into s rng s.stages;
  let worst = ref neg_infinity in
  for st = 0 to Float.Array.length s.stages - 1 do
    worst := Float.max !worst (Float.Array.unsafe_get s.stages st)
  done;
  !worst
