module Engine = Spv_engine.Engine
module G = Spv_stats.Gaussian
module Gd = Spv_process.Gate_delay
module Variation = Spv_process.Variation
module Netlist = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta

type stage_bound = {
  model : Interval.t;
  sta : Interval.t option;
  total : Interval.t;
}

type t = {
  k : float;
  stages : stage_bound array;
  delay : Interval.t;
  mean : Interval.t;
  marginals : G.t array;
}

let check_k ~where k =
  if not (Float.is_finite k && k > 0.0) then
    invalid_arg (where ^ ": k must be finite and positive")

(* The delay factor is monotone increasing in both shift components
   (a higher Vth or a longer channel only ever slows a gate), so the
   two extreme corners of the +-k sigma box are exact extrema.  The
   hull of the linearised and exact alpha-power factors covers both
   sampler modes. *)
let gate_factor_interval ~k (tech : Spv_process.Tech.t) ~size =
  check_k ~where:"Bounds.gate_factor_interval" k;
  if not (size > 0.0) then
    invalid_arg "Bounds.gate_factor_interval: size must be positive";
  let dvth =
    k
    *. (tech.sigma_vth_inter +. tech.sigma_vth_sys
       +. (tech.sigma_vth_rand /. sqrt size))
  in
  let dleff = k *. (tech.sigma_leff_rel_inter +. tech.sigma_leff_rel_sys) in
  let corner s =
    { Variation.dvth = s *. dvth; dleff_rel = s *. dleff }
  in
  let lo_c = corner (-1.0) and hi_c = corner 1.0 in
  let lo =
    Float.min
      (Variation.delay_factor_linear tech lo_c)
      (Variation.delay_factor_exact tech lo_c)
  in
  let hi =
    Float.max
      (Variation.delay_factor_linear tech hi_c)
      (Variation.delay_factor_exact tech hi_c)
  in
  Interval.make ~lo ~hi

(* +-k sigma span of a component-decomposed delay.  The components are
   summed linearly (not in quadrature): a box world can push all three
   the same way at once, and the linear sum also dominates the
   quadrature total sigma used by the Gaussian marginals. *)
let model_interval ~k (gd : Gd.t) =
  let span = k *. (gd.sigma_inter +. gd.sigma_sys +. gd.sigma_rand) in
  Interval.make ~lo:(gd.nominal -. span) ~hi:(gd.nominal +. span)

(* Corner STA: per-gate factor bounds, then one all-lo and one all-hi
   run.  Arrival times are max-plus expressions with non-negative
   coefficients in the factors, hence monotone, so the two corner runs
   bracket every in-box world. *)
let corner_factors ~k tech net =
  let n = Netlist.n_nodes net in
  let f_lo = Array.make n 1.0 and f_hi = Array.make n 1.0 in
  Array.iter
    (fun i ->
      let fi = gate_factor_interval ~k tech ~size:(Netlist.size net i) in
      f_lo.(i) <- Interval.lo fi;
      f_hi.(i) <- Interval.hi fi)
    (Netlist.gate_ids net);
  (f_lo, f_hi)

let corner_sta ~k tech net =
  let f_lo, f_hi = corner_factors ~k tech net in
  let lo = (Sta.run_with_factors tech net ~factors:f_lo).Sta.delay
  and hi =
    (Sta.run_with_factors tech net ~factors:f_hi).Sta.delay
  in
  Interval.make ~lo ~hi

let ff_interval ~k tech = function
  | None -> Interval.point 0.0
  | Some ff ->
      let nominal = Spv_process.Flipflop.nominal_overhead ff in
      Interval.scale (gate_factor_interval ~k tech ~size:2.0) nominal

let mean_envelope marginals =
  let n = Array.length marginals in
  let mu_max = Array.fold_left (fun m g -> Float.max m (G.mu g)) neg_infinity
      marginals
  and sigma_max =
    Array.fold_left (fun m g -> Float.max m (G.sigma g)) 0.0 marginals
  in
  (* Jensen below; the Gaussian union bound
     E[max] <= max mu + sigma_max sqrt(2 ln n) above (any dependence). *)
  let above =
    if n <= 1 then 0.0 else sigma_max *. sqrt (2.0 *. log (float_of_int n))
  in
  Interval.make ~lo:mu_max ~hi:(mu_max +. above)

let of_ctx ?(k = 6.0) ctx =
  check_k ~where:"Bounds.of_ctx" k;
  let pipeline = Engine.Ctx.pipeline ctx in
  let marginals = Spv_core.Pipeline.stage_gaussians pipeline in
  let n = Engine.Ctx.n_stages ctx in
  let gate = Engine.Ctx.gate_level ctx in
  let stages =
    Array.init n (fun i ->
        let model = model_interval ~k (Engine.Ctx.stage_delay_model ctx i) in
        let sta =
          if not gate then None
          else
            let tech = Engine.Ctx.tech ctx in
            let comb = corner_sta ~k tech (Engine.Ctx.netlist ctx i) in
            Some
              (Interval.add comb (ff_interval ~k tech (Engine.Ctx.flipflop ctx)))
        in
        let total =
          match sta with None -> model | Some s -> Interval.hull model s
        in
        { model; sta; total })
  in
  {
    k;
    stages;
    delay = Interval.max_many (Array.map (fun s -> s.total) stages);
    mean = mean_envelope marginals;
    marginals;
  }

let yield_bounds t ~t_target =
  if Float.is_nan t_target then
    invalid_arg "Bounds.yield_bounds: NaN t_target";
  let miss_sum = ref 0.0 and min_phi = ref 1.0 in
  Array.iter
    (fun g ->
      let phi = G.cdf g t_target in
      miss_sum := !miss_sum +. (1.0 -. phi);
      min_phi := Float.min !min_phi phi)
    t.marginals;
  (* lo <= hi holds mathematically (1 - sum_j (1 - phi_j) <= phi_g for
     every g), but on a single-stage pipeline the union lower is
     1 - (1 - phi) and the round trip can land one ulp above min_phi. *)
  Interval.make
    ~lo:(Float.min (Float.max 0.0 (1.0 -. !miss_sum)) !min_phi)
    ~hi:!min_phi

(* ---- estimate checking ---------------------------------------------- *)

type verdict =
  | Pass of { bound : Interval.t; slack : float }
  | Fail of { bound : Interval.t; slack : float; value : float; excess : float }

let verdict_ok = function Pass _ -> true | Fail _ -> false

let sampling_slack (e : Engine.estimate) =
  match e.stop with
  | Engine.Closed_form -> 0.0
  | Engine.Converged | Engine.Sample_cap | Engine.Fixed_n ->
      6.0 *. e.std_error

let default_yield_slack (e : Engine.estimate) =
  let analytic =
    match e.method_ with
    | Engine.Exact_independent -> 1e-9
    | Engine.Analytic_clark | Engine.Quadrature -> 0.02
    | Engine.Mc | Engine.Adaptive_mc | Engine.Importance -> 1e-9
  in
  analytic +. sampling_slack e

let default_mean_slack t (e : Engine.estimate) =
  let sigma_max =
    Array.fold_left (fun m g -> Float.max m (G.sigma g)) 0.0 t.marginals
  in
  (0.01 *. sigma_max) +. 1e-9 +. sampling_slack e

let judge ~bound ~slack value =
  if Interval.contains ~slack bound value then Pass { bound; slack }
  else
    let excess =
      if value > Interval.hi bound then value -. Interval.hi bound
      else Interval.lo bound -. value
    in
    Fail { bound; slack; value; excess }

let check ?slack ?t_target t (e : Engine.estimate) =
  match t_target with
  | Some t_target ->
      let bound = yield_bounds t ~t_target in
      let slack =
        match slack with Some s -> s | None -> default_yield_slack e
      in
      judge ~bound ~slack e.value
  | None ->
      let slack =
        match slack with Some s -> s | None -> default_mean_slack t e
      in
      judge ~bound:t.mean ~slack e.value

(* ---- report ---------------------------------------------------------- *)

let interval_data prefix i =
  [
    (prefix ^ "_lo", Report.Num (Interval.lo i));
    (prefix ^ "_hi", Report.Num (Interval.hi i));
  ]

let findings t =
  let stage_findings =
    Array.to_list t.stages
    |> List.mapi (fun i sb ->
           let data =
             interval_data "total" sb.total
             @ interval_data "model" sb.model
             @ (match sb.sta with
               | None -> []
               | Some s -> interval_data "sta" s)
             @ [ ("width", Report.Num (Interval.width sb.total)) ]
           in
           if Interval.is_finite sb.total then
             Report.finding ~location:(Report.Stage i) ~data ~pass:"bounds"
               "stage delay interval"
           else
             Report.finding ~severity:Report.Error
               ~location:(Report.Stage i) ~data ~pass:"bounds"
               "degenerate stage bound: the variation box crosses the \
                device cutoff (overdrive <= 0); lower k or the sigmas")
  in
  let pipeline_finding =
    let data =
      interval_data "delay" t.delay
      @ interval_data "mean" t.mean
      @ [ ("k", Report.Num t.k) ]
    in
    if Interval.is_finite t.delay then
      Report.finding ~data ~pass:"bounds" "pipeline delay interval"
    else
      Report.finding ~severity:Report.Error ~data ~pass:"bounds"
        "degenerate pipeline bound"
  in
  stage_findings @ [ pipeline_finding ]

(* ---- engine hook ----------------------------------------------------- *)

let describe_fail ~what = function
  | Pass _ -> assert false
  | Fail { bound; slack; value; excess } ->
      Printf.sprintf "%s %.9g outside %s (slack %.3g, excess %.3g)" what value
        (Interval.to_string bound) slack excess

let engine_check ctx ~t_target (e : Engine.estimate) =
  let b = of_ctx ctx in
  let what =
    match t_target with None -> "delay mean" | Some _ -> "yield"
  in
  match check ?t_target b e with
  | Pass _ -> Ok ()
  | Fail _ as v ->
      Error
        (Printf.sprintf "%s [%s]" (describe_fail ~what v)
           (Engine.method_name e.method_))

let install_engine_check () =
  Engine.set_estimate_check ~name:"interval" (Some engine_check)
