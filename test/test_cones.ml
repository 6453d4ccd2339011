open Helpers
module A = Spv_analysis.Affine
module As = Spv_analysis.Affine_sta
module Cn = Spv_analysis.Cones
module I = Spv_analysis.Interval
module Engine = Spv_engine.Engine
module Gen = Spv_circuit.Generators
module Fuzz = Spv_circuit.Fuzz
module Netlist = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta
module Mvn = Spv_stats.Mvn
module Rng = Spv_stats.Rng
module Imp = Spv_stats.Importance
module Special = Spv_stats.Special

let tech = Spv_process.Tech.bptm70

let moment_ctx () =
  let stages =
    Array.map2
      (fun mu sigma -> Spv_core.Stage.of_moments ~mu ~sigma ())
      [| 100.0; 95.0; 90.0; 105.0 |] [| 5.0; 4.0; 3.0; 6.0 |]
  in
  Engine.Ctx.of_pipeline
    (Spv_core.Pipeline.make stages
       ~corr:(Spv_stats.Correlation.uniform ~n:4 ~rho:0.3))

(* Binomial allowance around a bound value at sample size [n]. *)
let binom_allow ~n p =
  let p = Float.max 1e-12 (Float.min (1.0 -. 1e-12) p) in
  (4.0 *. sqrt (p *. (1.0 -. p) /. float_of_int n)) +. 1e-9

(* ---- stage criticality: exactness and MC containment ------------------ *)

(* Two independent stages: the criticality event is a single pairwise
   comparison, so both bounds collapse to the same exact Gaussian
   probability. *)
let test_stage_crit_two_stage_exact () =
  let stages =
    [|
      Spv_core.Stage.of_moments ~mu:100.0 ~sigma:4.0 ();
      Spv_core.Stage.of_moments ~mu:90.0 ~sigma:3.0 ();
    |]
  in
  let ctx =
    Engine.Ctx.of_pipeline
      (Spv_core.Pipeline.make stages
         ~corr:(Spv_stats.Correlation.independent ~n:2))
  in
  let co = Cn.analyse ctx in
  let p = Special.big_phi (10.0 /. 5.0) in
  check_float ~eps:1e-12 "stage 0 lower exact" p
    (I.lo co.Cn.co_stages.(0).Cn.sc_crit);
  check_float ~eps:1e-12 "stage 0 upper exact" p
    (I.hi co.Cn.co_stages.(0).Cn.sc_crit);
  check_float ~eps:1e-12 "stage 1 lower exact" (1.0 -. p)
    (I.lo co.Cn.co_stages.(1).Cn.sc_crit);
  check_float ~eps:1e-12 "stage 1 upper exact" (1.0 -. p)
    (I.hi co.Cn.co_stages.(1).Cn.sc_crit)

(* Correlated four-stage pipeline: empirical argmax frequencies over
   the context's own MVN must sit inside every stage's enclosure. *)
let test_stage_crit_mc_containment () =
  let ctx = moment_ctx () in
  let co = Cn.analyse ~t_target:118.0 ctx in
  let mvn = Engine.Ctx.mvn ctx in
  let n_stages = Engine.Ctx.n_stages ctx in
  let n = 10_000 in
  let rng = Rng.create ~seed:20260809 in
  let wins = Array.make n_stages 0 in
  for _ = 1 to n do
    let x = Mvn.sample mvn rng in
    let best = ref 0 in
    for s = 1 to n_stages - 1 do
      if x.(s) > x.(!best) then best := s
    done;
    wins.(!best) <- wins.(!best) + 1
  done;
  let sum_hi = ref 0.0 in
  Array.iteri
    (fun s (sc : Cn.stage_crit) ->
      let freq = float_of_int wins.(s) /. float_of_int n in
      let lo = I.lo sc.Cn.sc_crit and hi = I.hi sc.Cn.sc_crit in
      check_in_range "bounds are probabilities" ~lo:0.0 ~hi:1.0 lo;
      check_in_range "ordered" ~lo ~hi hi;
      sum_hi := !sum_hi +. hi;
      if freq < lo -. binom_allow ~n lo then
        Alcotest.failf "stage %d: freq %.4f below lower bound %.4f" s freq lo;
      if freq > hi +. binom_allow ~n hi then
        Alcotest.failf "stage %d: freq %.4f above upper bound %.4f" s freq hi;
      match sc.Cn.sc_depth with
      | None -> Alcotest.fail "depth expected with a target"
      | Some d -> check_in_range "finite depth" ~lo:(-10.0) ~hi:20.0 d)
    co.Cn.co_stages;
  (* The criticality events cover the whole space (ties have measure
     zero), so the upper bounds must sum to at least 1. *)
  check_in_range "uppers cover" ~lo:1.0 ~hi:(float_of_int n_stages) !sum_hi

(* ---- gate criticality: MC soundness on fuzzed netlists ---------------- *)

(* Re-derive the per-gate affine delay forms the pass analyses (the
   linearised-factor model, remainder exactly zero), then Monte-Carlo
   the gate criticality event itself: sample every noise symbol,
   evaluate each gate's delay, run the scalar forward/backward DP and
   mark the gates whose through-value attains the stage max.  Every
   empirical frequency must land inside the static enclosure — the
   acceptance criterion is zero escapes. *)
let stage_gate_forms ctx ~sys_row ~stage =
  let tech = Engine.Ctx.tech ctx in
  let net = Engine.Ctx.netlist ctx stage in
  let nominal = Engine.Ctx.nominal_sta ctx stage in
  Array.init (Netlist.n_nodes net) (fun i ->
      match Netlist.node net i with
      | Netlist.Primary_input _ -> None
      | Netlist.Gate _ ->
          let factor =
            As.stage_factor_form ~k:6.0 tech ~sys_row ~stage ~node:i
              ~size:(Netlist.size net i)
          in
          Some (A.scale factor nominal.Sta.gate_delays.(i)))

let mc_gate_criticality ctx ~stage ~forms ~n ~rng =
  let net = Engine.Ctx.netlist ctx stage in
  let n_nodes = Netlist.n_nodes net in
  let n_stages = Engine.Ctx.n_stages ctx in
  let outputs = Netlist.outputs net in
  let is_output = Array.make n_nodes false in
  Array.iter (fun o -> is_output.(o) <- true) outputs;
  let hits = Array.make n_nodes 0 in
  let delay = Array.make n_nodes 0.0 in
  let arr = Array.make n_nodes 0.0 in
  let down = Array.make n_nodes neg_infinity in
  for _ = 1 to n do
    (* One world: every symbol class drawn fresh; Rand symbols drawn
       lazily per device in deterministic node order. *)
    let vth = Rng.gaussian rng and leff = Rng.gaussian rng in
    let sys = Array.init n_stages (fun _ -> Rng.gaussian rng) in
    let rand = Hashtbl.create 64 in
    let at = function
      | A.Vth_inter -> vth
      | A.Leff_inter -> leff
      | A.Sys j -> sys.(j)
      | A.Rand { stage; node } -> (
          match Hashtbl.find_opt rand (stage, node) with
          | Some v -> v
          | None ->
              let v = Rng.gaussian rng in
              Hashtbl.add rand (stage, node) v;
              v)
      | A.Factor _ -> 0.0
    in
    for i = 0 to n_nodes - 1 do
      (match forms.(i) with
      | None -> delay.(i) <- 0.0
      | Some f -> delay.(i) <- I.lo (A.eval_interval f at));
      arr.(i) <- 0.0;
      down.(i) <- neg_infinity
    done;
    for i = 0 to n_nodes - 1 do
      match Netlist.node net i with
      | Netlist.Primary_input _ -> ()
      | Netlist.Gate { fanin; _ } ->
          let latest =
            Array.fold_left (fun acc f -> Float.max acc arr.(f)) 0.0 fanin
          in
          arr.(i) <- latest +. delay.(i)
    done;
    let d =
      Array.fold_left (fun acc o -> Float.max acc arr.(o)) neg_infinity outputs
    in
    for i = n_nodes - 1 downto 0 do
      if is_output.(i) then down.(i) <- 0.0;
      Netlist.iter_fanouts net i (fun g ->
          if Netlist.is_gate net g && down.(g) > neg_infinity then
            down.(i) <- Float.max down.(i) (delay.(g) +. down.(g)))
    done;
    let eps = 1e-7 *. Float.max 1.0 (Float.abs d) in
    for i = 0 to n_nodes - 1 do
      if
        Netlist.is_gate net i
        && down.(i) > neg_infinity
        && arr.(i) +. down.(i) >= d -. eps
      then hits.(i) <- hits.(i) + 1
    done
  done;
  hits

let test_gate_crit_mc_zero_escapes () =
  let n = 10_000 in
  List.iter
    (fun seed ->
      let config =
        {
          Fuzz.default_config with
          Fuzz.max_stages = 2;
          Fuzz.max_gates = 24;
          Fuzz.max_depth = 6;
          Fuzz.max_inputs = 4;
        }
      in
      let nets = Fuzz.generate ~config (Rng.create ~seed) in
      let ctx = Engine.Ctx.of_circuits tech nets in
      let co = Cn.analyse ctx in
      let rows = As.spatial_rows ctx in
      let escapes = ref 0 in
      for stage = 0 to Engine.Ctx.n_stages ctx - 1 do
        let forms = stage_gate_forms ctx ~sys_row:rows.(stage) ~stage in
        let rng = Rng.create ~seed:(7919 * (seed + stage)) in
        let hits = mc_gate_criticality ctx ~stage ~forms ~n ~rng in
        match Cn.gate_bounds co ~stage with
        | None -> Alcotest.fail "gate bounds expected on a gate-level context"
        | Some bounds ->
            Array.iteri
              (fun i b ->
                let freq = float_of_int hits.(i) /. float_of_int n in
                let lo = I.lo b and hi = I.hi b in
                check_in_range "gate bound ordered" ~lo ~hi hi;
                if
                  freq < lo -. binom_allow ~n lo
                  || freq > hi +. binom_allow ~n hi
                then begin
                  incr escapes;
                  Printf.printf
                    "seed %d stage %d node %d: freq %.4f outside [%.4f, %.4f]\n"
                    seed stage i freq lo hi
                end)
              bounds
      done;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: zero escapes" seed)
        0 !escapes)
    [ 11; 23 ]

(* ---- cones: structure and ranking ------------------------------------- *)

let test_cone_structure () =
  let ctx =
    Engine.Ctx.of_circuits tech
      [| Gen.ripple_carry_adder ~bits:4; Gen.inverter_chain ~depth:6 () |]
  in
  let co = Cn.analyse ~t_target:200.0 ctx in
  Alcotest.(check bool) "adder yields reconvergent cones" true
    (co.Cn.co_cones <> []);
  let prev = ref infinity in
  List.iter
    (fun (c : Cn.cone) ->
      let norm =
        sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 c.Cn.cn_shift)
      in
      check_float ~eps:1e-9 "whitened shift has unit norm" 1.0 norm;
      Alcotest.(check bool) "member gates present" true
        (Array.length c.Cn.cn_gates > 0);
      Array.iteri
        (fun j g ->
          if j > 0 && g <= c.Cn.cn_gates.(j - 1) then
            Alcotest.fail "member gates must be strictly ascending")
        c.Cn.cn_gates;
      check_in_range "cone crit lower" ~lo:0.0 ~hi:1.0 (I.lo c.Cn.cn_crit);
      check_in_range "cone crit upper" ~lo:(I.lo c.Cn.cn_crit) ~hi:1.0
        (I.hi c.Cn.cn_crit);
      (* Frechet combination can never exceed the member bound. *)
      check_in_range "crit below gate crit" ~lo:0.0
        ~hi:(I.hi c.Cn.cn_gate_crit +. 1e-12)
        (I.hi c.Cn.cn_crit);
      (* Ranked most-critical first. *)
      check_in_range "ranking monotone" ~lo:0.0 ~hi:!prev (I.lo c.Cn.cn_crit);
      prev := I.lo c.Cn.cn_crit)
    co.Cn.co_cones;
  List.iter
    (fun (c : Cn.cone) ->
      check_in_range "dominant cones clear the threshold"
        ~lo:co.Cn.co_threshold ~hi:1.0 (I.lo c.Cn.cn_crit))
    (Cn.dominant_cones co)

(* ---- statistical slack ------------------------------------------------- *)

let test_slack_form_and_attribution () =
  let ctx = moment_ctx () in
  let a = Cn.analyse ~t_target:110.0 ctx in
  let b = Cn.analyse ~t_target:120.0 ctx in
  (match (a.Cn.co_slack, b.Cn.co_slack) with
  | Some sa, Some sb ->
      check_float ~eps:1e-9 "slack center shifts with the target" 10.0
        (A.center sb -. A.center sa);
      check_float ~eps:1e-12 "slack sigma is target-independent"
        (A.sigma sa) (A.sigma sb)
  | _ -> Alcotest.fail "slack form expected with a target");
  let attrib = Cn.slack_attribution a in
  Alcotest.(check bool) "attribution non-empty" true (attrib <> []);
  List.iter
    (fun (cls, s) ->
      Alcotest.(check bool) "class named" true (String.length cls > 0);
      check_in_range "sigma contribution" ~lo:0.0 ~hi:infinity s)
    attrib;
  Alcotest.(check bool) "factor class present" true
    (List.mem_assoc "factor" attrib);
  let none = Cn.analyse ctx in
  Alcotest.(check bool) "no slack without a target" true
    (none.Cn.co_slack = None && Cn.slack_attribution none = [])

(* ---- analyzer-guided proposal: selection contract ---------------------- *)

(* The legacy per-stage mixture sampled directly from its plan — the
   proposal the engine falls back to when no cone dominates — as the
   reference the cone claims are measured against.  Returns the loss
   estimate, its standard error and the weights' ESS. *)
let legacy_loss ~n ctx ~t_target =
  let plan = Imp.plan (Engine.Ctx.mvn ctx) ~threshold:t_target in
  let rng = Rng.create ~seed:Engine.default_seed in
  let s = Imp.sampler plan in
  let sum = ref 0.0 and sum_sq = ref 0.0 in
  for _ = 1 to n do
    let w = Imp.draw_weight s rng in
    sum := !sum +. w;
    sum_sq := !sum_sq +. (w *. w)
  done;
  let fn = float_of_int n in
  let mean = !sum /. fn in
  let var = Float.max 0.0 ((!sum_sq -. (fn *. mean *. mean)) /. (fn -. 1.0)) in
  let ess = if !sum_sq > 0.0 then !sum *. !sum /. !sum_sq else 0.0 in
  (mean, sqrt (var /. fn), ess)

let test_proposal_tail_uses_cone () =
  let ctx = moment_ctx () in
  Cn.install_engine_proposal ();
  let t_target = 129.0 in
  let cone =
    Engine.yield_loss ~method_:Engine.Importance ~n:20_000 ctx ~t_target
  in
  (match cone.Engine.proposal with
  | Some (Engine.Prop_cone modes) ->
      Alcotest.(check int) "one mode per crossing stage" 4 modes
  | other ->
      Alcotest.failf "expected cone proposal, got %s"
        (match other with
        | Some u -> Engine.proposal_used_name u
        | None -> "none"));
  (match cone.Engine.ess with
  | Some ess -> check_in_range "ess positive" ~lo:1.0 ~hi:20_000.0 ess
  | None -> Alcotest.fail "importance estimate must report ess");
  let legacy, legacy_se, _ = legacy_loss ~n:20_000 ctx ~t_target in
  let allow = (5.0 *. (cone.Engine.std_error +. legacy_se)) +. 1e-15 in
  check_in_range "cone and legacy agree" ~lo:(legacy -. allow)
    ~hi:(legacy +. allow) cone.Engine.value

(* Deep tail: 64 independent stages, stage 0 (mu 100) dominant over 63
   background stages (mu 80), all sigma 5, at z = 8 (t = 140).  The
   legacy mixture caps its shift at 6 marginal sigmas and floors mode
   weights at 1e-12, so here it collapses to uniform over all 64 stages;
   the cone proposal shifts to the uncapped design point.  Independence
   keeps the exact loss available in log space at any depth. *)
let deep_tail_sigma = 5.0
let deep_tail_mus = Array.init 64 (fun i -> if i = 0 then 100.0 else 80.0)

let deep_tail_ctx () =
  Engine.Ctx.of_pipeline
    (Spv_core.Pipeline.make
       (Array.map
          (fun mu -> Spv_core.Stage.of_moments ~mu ~sigma:deep_tail_sigma ())
          deep_tail_mus)
       ~corr:(Spv_stats.Correlation.independent ~n:64))

(* The default importance estimator picks the cone proposal on its own
   wherever a cone dominates; there is no proposal to request. *)
let test_proposal_default_is_cone () =
  Cn.install_engine_proposal ();
  let e =
    Engine.yield_loss ~method_:Engine.Importance ~n:2_000 (deep_tail_ctx ())
      ~t_target:140.0
  in
  Alcotest.(check bool) "default importance run reports Prop_cone" true
    (match e.Engine.proposal with Some (Engine.Prop_cone _) -> true | _ -> false)

let test_proposal_deep_tail_ess_gain () =
  let sigma = deep_tail_sigma and mus = deep_tail_mus in
  let ctx = deep_tail_ctx () in
  Cn.install_engine_proposal ();
  let t_target = 140.0 and n = 40_000 in
  let exact =
    -.Float.expm1
        (Array.fold_left
           (fun acc mu ->
             acc +. Float.log1p (-.Special.upper_tail ((t_target -. mu) /. sigma)))
           0.0 mus)
  in
  let cone = Engine.yield_loss ~method_:Engine.Importance ~n ctx ~t_target in
  let _, _, legacy_ess = legacy_loss ~n ctx ~t_target in
  Alcotest.(check bool) "cone proposal selected" true
    (match cone.Engine.proposal with
    | Some (Engine.Prop_cone _) -> true
    | _ -> false);
  check_in_range "cone ESS >= 100x legacy" ~lo:100.0 ~hi:infinity
    (Option.value ~default:0.0 cone.Engine.ess /. Float.max legacy_ess 1.0);
  check_in_range "cone 3 se interval covers the exact loss"
    ~lo:(cone.Engine.value -. (3.0 *. cone.Engine.std_error))
    ~hi:(cone.Engine.value +. (3.0 *. cone.Engine.std_error))
    exact;
  (* single stage: the pipeline max is exactly Gaussian *)
  let one =
    Engine.Ctx.of_pipeline
      (Spv_core.Pipeline.make
         [| Spv_core.Stage.of_moments ~mu:100.0 ~sigma () |]
         ~corr:(Spv_stats.Correlation.independent ~n:1))
  in
  let e =
    Engine.yield_loss ~method_:Engine.Importance ~n one
      ~t_target:(100.0 +. (6.0 *. sigma))
  in
  check_in_range "cone 6-sigma loss within 3 se of upper_tail 6"
    ~lo:(e.Engine.value -. (3.0 *. e.Engine.std_error))
    ~hi:(e.Engine.value +. (3.0 *. e.Engine.std_error))
    (Special.upper_tail 6.0)

let test_proposal_body_falls_back_to_plain () =
  let ctx = moment_ctx () in
  Cn.install_engine_proposal ();
  let est =
    Engine.yield_loss ~method_:Engine.Importance ~n:4_000 ctx ~t_target:80.0
  in
  Alcotest.(check bool) "body target reports plain fallback" true
    (est.Engine.proposal = Some Engine.Prop_plain);
  check_in_range "loss near 1 below every mean" ~lo:0.99 ~hi:1.0
    est.Engine.value;
  match est.Engine.ess with
  | Some ess -> check_in_range "plain ess = failing count" ~lo:1.0 ~hi:4_000.0 ess
  | None -> Alcotest.fail "plain fallback must still report ess"

(* Eight exchangeable stages: every stage's criticality lower bound is
   0 (the union bound over seven ties is vacuous), so the provider
   returns None and the engine must keep — and report — its legacy
   mixture. *)
let test_proposal_no_dominant_stage_keeps_legacy () =
  let stages =
    Array.init 8 (fun _ -> Spv_core.Stage.of_moments ~mu:100.0 ~sigma:5.0 ())
  in
  let ctx =
    Engine.Ctx.of_pipeline
      (Spv_core.Pipeline.make stages
         ~corr:(Spv_stats.Correlation.independent ~n:8))
  in
  Cn.install_engine_proposal ();
  Alcotest.(check bool) "no stage dominates" true
    (Cn.proposal ctx ~t_target:120.0 = None);
  let est =
    Engine.yield_loss ~method_:Engine.Importance ~n:4_000 ctx
      ~t_target:120.0
  in
  Alcotest.(check bool) "falls back to the legacy mixture" true
    (est.Engine.proposal = Some Engine.Prop_legacy)

(* ---- determinism: jobs never change results --------------------------- *)

let test_cone_guided_jobs_determinism () =
  let nets =
    [|
      Gen.random_logic ~name:"j0" ~inputs:4 ~gates:30 ~depth:6 ~seed:5;
      Gen.random_logic ~name:"j1" ~inputs:3 ~gates:20 ~depth:5 ~seed:6;
    |]
  in
  let ctx = Engine.Ctx.of_circuits tech nets in
  let before = Engine.gate_level_delays ~exact:false ctx ~n:1_500 in
  Cn.install_engine_proposal ();
  let t_target =
    Spv_stats.Gaussian.(
      let d = Engine.Ctx.delay_distribution ctx in
      mu d +. (4.0 *. sigma d))
  in
  let run jobs =
    Engine.yield_loss ~method_:Engine.Importance ~jobs ~n:8_000 ctx ~t_target
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "value bit-identical across jobs" true
    (Float.equal a.Engine.value b.Engine.value);
  Alcotest.(check bool) "std_error bit-identical across jobs" true
    (Float.equal a.Engine.std_error b.Engine.std_error);
  Alcotest.(check bool) "ess bit-identical across jobs" true
    (a.Engine.ess = b.Engine.ess && a.Engine.proposal = b.Engine.proposal);
  (* Running the analyzer and a cone-guided estimate must not perturb
     the gate-level sampler: same seed, same bytes, any jobs. *)
  ignore (Cn.analyse ~t_target ctx);
  let after1 = Engine.gate_level_delays ~exact:false ~jobs:1 ctx ~n:1_500 in
  let after3 = Engine.gate_level_delays ~exact:false ~jobs:3 ctx ~n:1_500 in
  Alcotest.(check bool) "gate-level MC stream unchanged after cone runs" true
    (before = after1);
  Alcotest.(check bool) "gate-level MC stream independent of jobs" true
    (after1 = after3)

(* ---- stage criticality kernel: the affine-form reference ---------------- *)

(* The stage bounds as they were computed before the kernel read the
   Cholesky factor in place: one affine model form per stage, the
   difference of two forms through [Affine.sub], its sigma through
   [Affine.sigma], every term of the union sum, and the reference
   stage from a sort of the means.  The kernel must match it bit for
   bit. *)
let ref_dust_eps a b =
  let scale f = Float.abs (A.center f) +. A.sigma f in
  1e-9 *. Float.max 1.0 (Float.max (scale a) (scale b))

let ref_prob_exceeds a b =
  let d = A.sub a b in
  let mu = A.center d and sigma = A.sigma d in
  let eps = ref_dust_eps a b in
  if sigma > eps then Special.big_phi (mu /. sigma)
  else if mu > eps then 1.0
  else 0.0

(* Per stage: (lower, upper) before they are made an interval. *)
let ref_stage_bounds mvn =
  let n = Mvn.dim mvn in
  let forms = Array.init n (As.model_form mvn) in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare (Mvn.mean mvn b, a) (Mvn.mean mvn a, b)) order;
  let best = order.(0) in
  let second = if n > 1 then order.(1) else best in
  Array.init n (fun s ->
      if n = 1 then (1.0, 1.0)
      else begin
        let miss = ref 0.0 in
        for j = 0 to n - 1 do
          if j <> s then miss := !miss +. ref_prob_exceeds forms.(j) forms.(s)
        done;
        let c = if s = best then second else best in
        ( Float.max 0.0 (1.0 -. !miss),
          1.0 -. ref_prob_exceeds forms.(c) forms.(s) )
      end)

let ref_depth mvn s ~t_target =
  let g = Mvn.marginal mvn s in
  let sigma = Spv_stats.Gaussian.sigma g in
  if sigma > 0.0 then Some ((t_target -. Spv_stats.Gaussian.mu g) /. sigma)
  else None

let ref_proposal ctx ~t_target =
  let mvn = Engine.Ctx.mvn ctx in
  let n = Mvn.dim mvn in
  let crit =
    Array.map (fun (lower, upper) -> Float.min lower upper) (ref_stage_bounds mvn)
  in
  if not (Array.exists (fun lo -> lo >= 0.05) crit) then None
  else begin
    let shifts = ref [] and alphas = ref [] in
    for s = n - 1 downto 0 do
      let sigma = Spv_stats.Gaussian.sigma (Mvn.marginal mvn s) in
      match ref_depth mvn s ~t_target with
      | Some depth when sigma > 0.0 && depth > 0.0 ->
          let u = Array.map (fun l -> l /. sigma) (Mvn.cholesky_row mvn s) in
          shifts := Array.map (fun c -> c *. depth) u :: !shifts;
          let crit = Float.max crit.(s) 1e-3 in
          let tail = Float.max (Special.upper_tail depth) 1e-300 in
          alphas := (crit *. tail) :: !alphas
      | _ -> ()
    done;
    match !shifts with
    | [] -> Some ([| Array.make n 0.0 |], [| 1.0 |])
    | ss -> Some (Array.of_list ss, Array.of_list !alphas)
  end

let bits = Int64.bits_of_float

let check_same_bits name a b =
  if bits a <> bits b then Alcotest.failf "%s: %h <> reference %h" name a b

let moments_ctx ~rho stages =
  let n = Array.length stages in
  Engine.Ctx.of_pipeline
    (Spv_core.Pipeline.make
       (Array.map
          (fun (mu, sigma) -> Spv_core.Stage.of_moments ~mu ~sigma ())
          stages)
       ~corr:(Spv_stats.Correlation.uniform ~n ~rho))

(* [analyse]'s stage bounds and depths and [proposal]'s shifts and
   alphas against the reference, on one context over a target sweep
   from below the body to the far tail. *)
let check_against_reference name ctx =
  let mvn = Engine.Ctx.mvn ctx in
  let reference = ref_stage_bounds mvn in
  let d = Engine.Ctx.delay_distribution ctx in
  List.iter
    (fun k ->
      let t_target =
        Spv_stats.Gaussian.mu d +. (k *. Spv_stats.Gaussian.sigma d)
      in
      let name = Printf.sprintf "%s, t = mu %+g sigma" name k in
      let co = Cn.analyse ~t_target ctx in
      Array.iteri
        (fun s (sc : Cn.stage_crit) ->
          let lower, upper = reference.(s) in
          let what = Printf.sprintf "%s: stage %d" name s in
          check_same_bits (what ^ " crit lo") (Float.min lower upper)
            (I.lo sc.Cn.sc_crit);
          check_same_bits (what ^ " crit hi") upper (I.hi sc.Cn.sc_crit);
          match (ref_depth mvn s ~t_target, sc.Cn.sc_depth) with
          | None, None -> ()
          | Some a, Some b -> check_same_bits (what ^ " depth") a b
          | _ -> Alcotest.failf "%s: depth presence differs" what)
        co.Cn.co_stages;
      match (ref_proposal ctx ~t_target, Cn.proposal ctx ~t_target) with
      | None, None -> ()
      | Some (rs, ra), Some (ks, ka) ->
          Alcotest.(check int) (name ^ ": modes") (Array.length rs)
            (Array.length ks);
          Array.iteri
            (fun m r ->
              check_same_bits (Printf.sprintf "%s: alpha %d" name m) r ka.(m);
              Array.iteri
                (fun i x ->
                  check_same_bits
                    (Printf.sprintf "%s: shift %d.%d" name m i)
                    x ks.(m).(i))
                rs.(m))
            ra
      | _ -> Alcotest.failf "%s: proposal presence differs" name)
    [ -1.0; 0.0; 1.5; 3.0; 6.0 ]

(* Random 1-64-stage contexts at rho 0, 0.3 and 0.6, each also with a
   dominant stage (so the proposal returns many modes), with the
   largest mean duplicated (tied reference stages) and with a zero-sigma
   stage; plus an all-deterministic pipeline, where every pair is a
   step function and equal means or means within the cancellation
   floor tie. *)
let test_stage_kernel_matches_reference () =
  let st = Random.State.make [| 26 |] in
  let draw n =
    Array.init n (fun _ ->
        ( 95.0 +. Random.State.float st 10.0,
          3.0 +. Random.State.float st 4.0 ))
  in
  List.iteri
    (fun i n ->
      let rho = [| 0.0; 0.3; 0.6 |].(i mod 3) in
      let base = draw n in
      let top = ref 0 in
      Array.iteri (fun s (mu, _) -> if mu > fst base.(!top) then top := s) base;
      let variant label f =
        let stages = Array.copy base in
        f stages;
        check_against_reference
          (Printf.sprintf "%d stages, rho %g, %s" n rho label)
          (moments_ctx ~rho stages)
      in
      variant "plain" ignore;
      variant "dominant" (fun a ->
          a.(n / 2) <- (fst a.(n / 2) +. 25.0, snd a.(n / 2)));
      if n > 1 then begin
        variant "tied" (fun a -> a.((!top + 1) mod n) <- a.(!top));
        variant "zero sigma" (fun a -> a.(n - 1) <- (fst a.(n - 1), 0.0))
      end)
    [ 1; 2; 3; 5; 8; 13; 21; 32; 47; 64 ];
  check_against_reference "deterministic"
    (moments_ctx ~rho:0.3
       [| (100.0, 0.0); (100.0, 0.0); (95.0, 0.0); (100.00000001, 0.0) |])

(* The proposal allocates what it returns — the shift rows, the alphas
   and the option around them — plus five float arrays of at most
   [n] entries of scratch, and nothing per stage pair: 64 stages have
   4,032 ordered pairs, so a float boxed per pair would show. *)
let test_proposal_allocates_its_shifts () =
  let n = 64 in
  let st = Random.State.make [| 5 |] in
  let stages =
    Array.init n (fun i ->
        ( (if i = 0 then 140.0 else 95.0 +. Random.State.float st 10.0),
          3.0 +. Random.State.float st 4.0 ))
  in
  let ctx = moments_ctx ~rho:0.3 stages in
  let t_target = 155.0 in
  let modes =
    match Cn.proposal ctx ~t_target with
    | Some (shifts, _) -> Array.length shifts
    | None -> Alcotest.fail "expected a cone proposal"
  in
  Alcotest.(check int) "every stage is a mode" n modes;
  let returned = (modes * (n + 1)) + (2 * (modes + 1)) + 5 in
  let words =
    words_per_call ~n:20 (fun () ->
        ignore (Sys.opaque_identity (Cn.proposal ctx ~t_target)))
  in
  if words > float_of_int (returned + (5 * (n + 1)) + 8) then
    Alcotest.failf "proposal allocates %.0f words; returns %d" words returned

(* ---- validation -------------------------------------------------------- *)

let test_validation () =
  let ctx = moment_ctx () in
  check_raises_invalid "k zero" (fun () -> ignore (Cn.analyse ~k:0.0 ctx));
  check_raises_invalid "k nan" (fun () -> ignore (Cn.analyse ~k:Float.nan ctx));
  check_raises_invalid "threshold negative" (fun () ->
      ignore (Cn.analyse ~threshold:(-0.1) ctx));
  check_raises_invalid "threshold above one" (fun () ->
      ignore (Cn.analyse ~threshold:1.5 ctx));
  check_raises_invalid "non-finite target" (fun () ->
      ignore (Cn.analyse ~t_target:Float.nan ctx));
  check_raises_invalid "proposal non-finite target" (fun () ->
      ignore (Cn.proposal ctx ~t_target:Float.infinity));
  let mvn =
    Mvn.create ~mus:[| 0.0; 0.0 |] ~sigmas:[| 1.0; 1.0 |]
      ~corr:(Spv_stats.Correlation.independent ~n:2)
  in
  let shifts = [| [| 3.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  check_raises_invalid "alphas without shifts" (fun () ->
      ignore (Imp.plan ~z_alphas:[| 1.0 |] mvn ~threshold:3.0));
  check_raises_invalid "alpha length mismatch" (fun () ->
      ignore (Imp.plan ~z_shifts:shifts ~z_alphas:[| 1.0 |] mvn ~threshold:3.0));
  check_raises_invalid "non-positive alpha" (fun () ->
      ignore
        (Imp.plan ~z_shifts:shifts ~z_alphas:[| 1.0; 0.0 |] mvn ~threshold:3.0));
  check_raises_invalid "non-finite alpha" (fun () ->
      ignore
        (Imp.plan ~z_shifts:shifts ~z_alphas:[| 1.0; Float.nan |] mvn
           ~threshold:3.0));
  check_raises_invalid "empty shift set" (fun () ->
      ignore (Imp.plan ~z_shifts:[||] mvn ~threshold:3.0));
  check_raises_invalid "shift dimension mismatch" (fun () ->
      ignore (Imp.plan ~z_shifts:[| [| 1.0 |] |] mvn ~threshold:3.0))

let suite =
  [
    quick "two-stage criticality is exact" test_stage_crit_two_stage_exact;
    slow "stage criticality MC containment" test_stage_crit_mc_containment;
    slow "gate criticality MC: zero escapes" test_gate_crit_mc_zero_escapes;
    quick "cone structure and ranking" test_cone_structure;
    quick "slack form and attribution" test_slack_form_and_attribution;
    slow "tail target uses the cone proposal" test_proposal_tail_uses_cone;
    quick "default importance proposal is cone" test_proposal_default_is_cone;
    slow "deep tail: cone ESS >= 100x legacy, CI covers exact"
      test_proposal_deep_tail_ess_gain;
    quick "body target falls back to plain" test_proposal_body_falls_back_to_plain;
    quick "no dominant stage keeps legacy" test_proposal_no_dominant_stage_keeps_legacy;
    slow "cone-guided runs are jobs-deterministic" test_cone_guided_jobs_determinism;
    quick "stage kernel matches the affine-form reference"
      test_stage_kernel_matches_reference;
    quick "proposal allocates only its shifts" test_proposal_allocates_its_shifts;
    quick "validation" test_validation;
  ]
