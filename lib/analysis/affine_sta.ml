module Engine = Spv_engine.Engine
module G = Spv_stats.Gaussian
module Mvn = Spv_stats.Mvn
module Matrix = Spv_stats.Matrix
module Tech = Spv_process.Tech
module Spatial = Spv_process.Spatial
module Netlist = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta

type stage = {
  model_form : Affine.t;
  sta_form : Affine.t option;
  model_conc : Interval.t;
  sta_conc : Interval.t option;
  enclosure : Interval.t;
  width_ratio : float;
}

type t = {
  k : float;
  bounds : Bounds.t;
  stages : stage array;
  pipe_model : Affine.t;
  pipe_sta : Affine.t option;
  delay : Interval.t;
  delay_ratio : float;
  mean : Interval.t;
  escape : float;
}

let check_k ~where k =
  if not (Float.is_finite k && k > 0.0) then
    invalid_arg (where ^ ": k must be finite and positive")

(* Both operands are sound enclosures of the same quantity (the
   interval one surely under the box hypothesis, the affine one up to
   its escape mass), so their intersection is too — this is what makes
   nesting inside the interval results hold by construction.  A
   numerically disjoint pair (impossible up to the escape slop) falls
   back to the interval answer. *)
let intersect affine interval =
  let lo = Float.max (Interval.lo affine) (Interval.lo interval)
  and hi = Float.min (Interval.hi affine) (Interval.hi interval) in
  if lo <= hi then Interval.make ~lo ~hi else interval

let width_ratio ~tight ~wide =
  let wt = Interval.width tight and ww = Interval.width wide in
  if Float.is_finite wt && Float.is_finite ww && ww > 0.0 then wt /. ww
  else 1.0

(* ---- model-level forms (the stage-delay MVN in its Cholesky basis) -- *)

let model_form mvn i =
  let row = Mvn.cholesky_row mvn i in
  let terms = ref [] in
  Array.iteri
    (fun j c -> if c <> 0.0 then terms := (Affine.Factor j, c) :: !terms)
    row;
  Affine.make ~center:(Mvn.mean mvn i) ~terms:!terms ~rem:(Interval.point 0.0)
    ()

(* ---- gate-level forms ----------------------------------------------- *)

(* Linearisation gap of the exact alpha-power factor over the box, in
   (u, l) coordinates with u = dvth + coupling * dleff (the overdrive
   shift) and l = dleff:

     h(u, l) = (1 + l) g(u) - (1 + s_v u + l),
     g(u) = (Vgt0 / (Vgt0 - u))^alpha,

   where the affine linear part equals 1 + s_v u + l pointwise.  h is
   linear in l and convex in u (g is convex while 1 + l >= 0), so its
   maximum over the box sits at one of the four corners; g's tangent
   at 0 gives the rigorous floor h >= s_v * u * l >= -s_v U1 L1.  The
   bound degenerates to an infinite interval when the box reaches
   device cutoff (u >= Vgt0) or channel-length pinch (l <= -1),
   mirroring the exact model's own singularities. *)
let linearisation_gap ~k (tech : Tech.t) ~sys_l1 ~size =
  let sv = Tech.delay_sensitivity_vth tech in
  let v1 =
    k
    *. (tech.sigma_vth_inter
       +. (tech.sigma_vth_sys *. sys_l1)
       +. (tech.sigma_vth_rand /. sqrt size))
  in
  let l1 =
    k *. (tech.sigma_leff_rel_inter +. (tech.sigma_leff_rel_sys *. sys_l1))
  in
  let u1 = v1 +. (Float.abs tech.vth_leff_coupling *. l1) in
  let vgt0 = tech.vdd -. tech.vth0 in
  let lo = if l1 < 1.0 then -.(sv *. u1 *. l1) else neg_infinity in
  let hi =
    if u1 < vgt0 && l1 < 1.0 then
      List.fold_left
        (fun acc (u, l) ->
          let g = Spv_process.Alpha_power.delay_factor tech ~dvth:u
              ~dleff_rel:0.0
          in
          Float.max acc (((1.0 +. l) *. g) -. (1.0 +. (sv *. u) +. l)))
        0.0
        [ (u1, l1); (u1, -.l1); (-.u1, l1); (-.u1, -.l1) ]
    else infinity
  in
  Interval.make ~lo ~hi

(* By default the gate-level forms model the {e linearised}-factor
   sampler — the one [Engine.gate_level_delays ~exact:false] and the
   analytic SSTA moments use — for which the affine linear part is the
   factor {e exactly} (rem = 0).  The exact alpha-power sampler is
   covered through the final intersection with {!Bounds}, whose corner
   factors hull both models.  Passing [~exact_rem:true] instead
   charges every gate the alpha-power linearisation gap over the box,
   making the form a standalone enclosure of the exact sampler too —
   at the cost of a remainder that dwarfs the linear part at large k
   (the gap grows like [(1 - u/Vgt0)^-alpha]). *)
let stage_factor_form ?(exact_rem = false) ~k (tech : Tech.t) ~sys_row ~stage
    ~node ~size =
  check_k ~where:"Affine_sta.stage_factor_form" k;
  if not (size > 0.0) then
    invalid_arg "Affine_sta.stage_factor_form: size must be positive";
  let sv = Tech.delay_sensitivity_vth tech in
  let sl = Tech.delay_sensitivity_leff tech in
  (* One spatial field value drives both systematic shifts, so the
     per-driver coefficient combines them linearly (cf.
     Variation.rel_sigma_sys). *)
  let sys_coeff =
    (sv *. tech.sigma_vth_sys) +. (sl *. tech.sigma_leff_rel_sys)
  in
  let terms = ref [] in
  let push s c = if c <> 0.0 then terms := (s, c) :: !terms in
  push Affine.Vth_inter (sv *. tech.sigma_vth_inter);
  push Affine.Leff_inter (sl *. tech.sigma_leff_rel_inter);
  Array.iteri (fun j lj -> push (Affine.Sys j) (sys_coeff *. lj)) sys_row;
  push (Affine.Rand { stage; node }) (sv *. tech.sigma_vth_rand /. sqrt size);
  let rem =
    if exact_rem then
      let sys_l1 =
        Array.fold_left (fun acc lj -> acc +. Float.abs lj) 0.0 sys_row
      in
      linearisation_gap ~k tech ~sys_l1 ~size
    else Interval.point 0.0
  in
  Affine.make ~center:1.0 ~terms:!terms ~rem ()

(* The sampler's spatial field is L z with L the Cholesky factor of
   the stage-position correlation (Spatial.field_factor); building the
   same factor here makes the Sys basis match it bit-for-bit. *)
let spatial_rows ctx =
  let n = Engine.Ctx.n_stages ctx in
  let tech = Engine.Ctx.tech ctx in
  let positions =
    Spatial.row_positions ~n ~pitch:(Engine.Ctx.pitch ctx)
  in
  let chol = Spatial.field_factor tech positions in
  Array.init n (fun i -> Array.init n (fun j -> Matrix.get chol i j))

(* Affine levelisation, the Affine instance of [Sta.forward]:
   arrival(i) = max2 over fanins folded from 0 + d_i * factor_i with
   d_i the nominal gate delay (loads over the full netlist).  Returns
   the per-node gate forms (0 at inputs) and arrival forms. *)
let stage_forms ~k ctx ~sys_row ~stage =
  let tech = Engine.Ctx.tech ctx in
  let net = Engine.Ctx.netlist ctx stage in
  let nominal = Engine.Ctx.nominal_sta ctx stage in
  let zero = Affine.const 0.0 in
  let gate_form = Array.make (Netlist.n_nodes net) zero in
  let arrival =
    Sta.forward
      (module struct
        type t = Affine.t

        let input _ = zero
        let start a = Affine.max2 ~k zero a
        let join a b = Affine.max2 ~k a b

        let gate i latest =
          let factor =
            stage_factor_form ~k tech ~sys_row ~stage ~node:i
              ~size:(Netlist.size net i)
          in
          gate_form.(i) <- Affine.scale factor nominal.Sta.gate_delays.(i);
          Affine.add latest gate_form.(i)
      end)
      net
  in
  (gate_form, arrival)

(* The stage form: the max over primary outputs of [stage_forms]'
   arrivals, plus the flip-flop overhead sampled with size 2.0. *)
let stage_sta_form ~k ctx ~sys_row ~stage =
  let tech = Engine.Ctx.tech ctx in
  let net = Engine.Ctx.netlist ctx stage in
  let _, arrival = stage_forms ~k ctx ~sys_row ~stage in
  let comb =
    Affine.max_many ~k
      (Array.map (fun o -> arrival.(o)) (Netlist.outputs net))
  in
  match Engine.Ctx.flipflop ctx with
  | None -> comb
  | Some ff ->
      let factor =
        stage_factor_form ~k tech ~sys_row ~stage ~node:(-1) ~size:2.0
      in
      Affine.add comb
        (Affine.scale factor (Spv_process.Flipflop.nominal_overhead ff))

(* ---- assembling the enclosures -------------------------------------- *)

(* Coarse tail allowance for unconditional-mean envelopes: outside the
   box (mass <= escape) the form equality fails, so the conditional
   mean interval is widened by a Cauchy–Schwarz term computed from the
   model marginals' second moments.  Negligible at k = 6 (sqrt(esc) ~
   1e-4), and calibrated on the model world — the exact-model gate
   sampler's far tail is heavier (see DESIGN); the final envelope is
   intersected with the interval one either way. *)
let mean_tail_slack ~escape marginals form =
  let s2 =
    Array.fold_left
      (fun acc g ->
        let mu = G.mu g and s = G.sigma g in
        acc +. (mu *. mu) +. (s *. s))
      0.0 marginals
  in
  (Affine.sigma form +. Float.abs (Affine.center form) +. sqrt s2)
  *. sqrt (Float.min 1.0 escape)

let mean_envelope ~escape marginals form =
  let base = Affine.mean_interval form in
  let slack = mean_tail_slack ~escape marginals form in
  if Float.is_finite slack && Interval.is_finite base then
    Interval.make
      ~lo:(Interval.lo base -. slack)
      ~hi:(Interval.hi base +. slack)
  else Interval.make ~lo:neg_infinity ~hi:infinity

let of_ctx ?(k = 6.0) ctx =
  check_k ~where:"Affine_sta.of_ctx" k;
  let bounds = Bounds.of_ctx ~k ctx in
  let n = Engine.Ctx.n_stages ctx in
  let mvn = Engine.Ctx.mvn ctx in
  let gate = Engine.Ctx.gate_level ctx in
  let model_forms = Array.init n (model_form mvn) in
  let sta_forms =
    if not gate then None
    else
      let rows = spatial_rows ctx in
      Some
        (Array.init n (fun i ->
             stage_sta_form ~k ctx ~sys_row:rows.(i) ~stage:i))
  in
  let stages =
    Array.init n (fun i ->
        let mf = model_forms.(i) in
        let sf = Option.map (fun fs -> fs.(i)) sta_forms in
        let model_conc = Affine.concentration ~k mf in
        let sta_conc = Option.map (Affine.concentration ~k) sf in
        let raw =
          match sta_conc with
          | None -> model_conc
          | Some s -> Interval.hull model_conc s
        in
        let total = bounds.Bounds.stages.(i).Bounds.total in
        let enclosure = intersect raw total in
        {
          model_form = mf;
          sta_form = sf;
          model_conc;
          sta_conc;
          enclosure;
          width_ratio = width_ratio ~tight:enclosure ~wide:total;
        })
  in
  let pipe_model = Affine.max_many ~k model_forms in
  let pipe_sta = Option.map (Affine.max_many ~k) sta_forms in
  let delay_raw =
    let m = Affine.concentration ~k pipe_model in
    match pipe_sta with
    | None -> m
    | Some f -> Interval.hull m (Affine.concentration ~k f)
  in
  let delay = intersect delay_raw bounds.Bounds.delay in
  let escape =
    let e = Affine.escape_probability ~k pipe_model in
    match pipe_sta with
    | None -> e
    | Some f -> Float.max e (Affine.escape_probability ~k f)
  in
  let mean_raw =
    let m = mean_envelope ~escape bounds.Bounds.marginals pipe_model in
    match pipe_sta with
    | None -> m
    | Some f ->
        Interval.hull m (mean_envelope ~escape bounds.Bounds.marginals f)
  in
  {
    k;
    bounds;
    stages;
    pipe_model;
    pipe_sta;
    delay;
    delay_ratio = width_ratio ~tight:delay ~wide:bounds.Bounds.delay;
    mean = intersect mean_raw bounds.Bounds.mean;
    escape;
  }

let yield_bounds t ~t_target =
  if Float.is_nan t_target then
    invalid_arg "Affine_sta.yield_bounds: NaN t_target";
  let ym = Affine.cdf_bounds ~k:t.k t.pipe_model t_target in
  let raw =
    match t.pipe_sta with
    | None -> ym
    | Some f -> Interval.hull ym (Affine.cdf_bounds ~k:t.k f t_target)
  in
  intersect raw (Bounds.yield_bounds t.bounds ~t_target)

(* ---- estimate checking (same slack policy as Bounds.check) ----------- *)

let sampling_slack (e : Engine.estimate) =
  match e.stop with
  | Engine.Closed_form -> 0.0
  | Engine.Converged | Engine.Sample_cap | Engine.Fixed_n ->
      6.0 *. e.std_error

let default_yield_slack (e : Engine.estimate) =
  let analytic =
    match e.method_ with
    | Engine.Analytic_clark | Engine.Quadrature -> 0.02
    | Engine.Exact_independent | Engine.Mc | Engine.Adaptive_mc
    | Engine.Importance ->
        1e-9
  in
  analytic +. sampling_slack e

let default_mean_slack t (e : Engine.estimate) =
  let sigma_max =
    Array.fold_left
      (fun m g -> Float.max m (G.sigma g))
      0.0 t.bounds.Bounds.marginals
  in
  (0.01 *. sigma_max) +. 1e-9 +. sampling_slack e

let judge ~bound ~slack value : Bounds.verdict =
  if Interval.contains ~slack bound value then Bounds.Pass { bound; slack }
  else
    let excess =
      if value > Interval.hi bound then value -. Interval.hi bound
      else Interval.lo bound -. value
    in
    Bounds.Fail { bound; slack; value; excess }

let check ?slack ?t_target t (e : Engine.estimate) =
  match t_target with
  | Some t_target when e.Engine.method_ = Engine.Exact_independent ->
      (* The per-stage product is the exact yield only under
         independence; under correlation it can legitimately sit
         anywhere inside the Fréchet band but outside the affine
         envelope of the true yield. *)
      Bounds.check ?slack ~t_target t.bounds e
  | Some t_target ->
      let bound = yield_bounds t ~t_target in
      let slack =
        match slack with Some s -> s | None -> default_yield_slack e
      in
      judge ~bound ~slack e.Engine.value
  | None ->
      let slack =
        match slack with Some s -> s | None -> default_mean_slack t e
      in
      judge ~bound:t.mean ~slack e.Engine.value

(* ---- report ---------------------------------------------------------- *)

let interval_data prefix i =
  [
    (prefix ^ "_lo", Report.Num (Interval.lo i));
    (prefix ^ "_hi", Report.Num (Interval.hi i));
  ]

let sensitivity_finding ~what form =
  let data =
    List.map (fun (cls, s) -> (cls, Report.Num s)) (Affine.attribution form)
    @ [
        ("sigma", Report.Num (Affine.sigma form));
        ("rem_width", Report.Num (Interval.width (Affine.rem form)));
        ("n_symbols", Report.Int (Affine.n_terms form));
      ]
  in
  Report.finding ~pass:"affine" ~data
    (Printf.sprintf "pipeline delay sensitivity (%s form)" what)

let findings ?t_target t =
  let stage_findings =
    Array.to_list t.stages
    |> List.mapi (fun i s ->
           let data =
             interval_data "enclosure" s.enclosure
             @ [ ("width_ratio", Report.Num s.width_ratio) ]
             @ interval_data "model_conc" s.model_conc
             @
             match s.sta_conc with
             | None -> []
             | Some c -> interval_data "sta_conc" c
           in
           if Interval.is_finite s.enclosure then
             Report.finding ~location:(Report.Stage i) ~data ~pass:"affine"
               "stage delay affine enclosure"
           else
             Report.finding ~severity:Report.Error
               ~location:(Report.Stage i) ~data ~pass:"affine"
               "degenerate affine stage enclosure: the variation box \
                crosses the device cutoff; lower k or the sigmas")
  in
  let pipeline_finding =
    let data =
      interval_data "delay" t.delay
      @ interval_data "mean" t.mean
      @ [
          ("width_ratio", Report.Num t.delay_ratio);
          ("escape", Report.Num t.escape);
          ("k", Report.Num t.k);
        ]
    in
    if Interval.is_finite t.delay then
      Report.finding ~data ~pass:"affine" "pipeline delay affine enclosure"
    else
      Report.finding ~severity:Report.Error ~data ~pass:"affine"
        "degenerate affine pipeline enclosure"
  in
  let yield_finding =
    match t_target with
    | None -> []
    | Some t_target ->
        let y = yield_bounds t ~t_target in
        let frechet = Bounds.yield_bounds t.bounds ~t_target in
        [
          Report.finding ~pass:"affine"
            ~data:
              (interval_data "yield" y
              @ interval_data "frechet" frechet
              @ [
                  ("t_target", Report.Num t_target);
                  ( "width_ratio",
                    Report.Num (width_ratio ~tight:y ~wide:frechet) );
                ])
            "pipeline yield affine envelope";
        ]
  in
  let sensitivity =
    sensitivity_finding ~what:"model" t.pipe_model
    ::
    (match t.pipe_sta with
    | None -> []
    | Some f -> [ sensitivity_finding ~what:"gate-level" f ])
  in
  stage_findings @ [ pipeline_finding ] @ yield_finding @ sensitivity

(* ---- engine hook ----------------------------------------------------- *)

let engine_check ctx ~t_target (e : Engine.estimate) =
  let a = of_ctx ctx in
  let what =
    match t_target with None -> "delay mean" | Some _ -> "yield"
  in
  match check ?t_target a e with
  | Bounds.Pass _ -> Ok ()
  | Bounds.Fail { bound; slack; value; excess } ->
      Error
        (Printf.sprintf
           "%s %.9g outside affine envelope %s (slack %.3g, excess %.3g) [%s]"
           what value (Interval.to_string bound) slack excess
           (Engine.method_name e.Engine.method_))

let install_engine_check () =
  Engine.set_estimate_check ~name:"affine" (Some engine_check)
