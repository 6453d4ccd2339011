open Helpers
module S = Spv_analysis.Sensitivity
module Dom = Spv_analysis.Dominance
module I = Spv_analysis.Interval
module Engine = Spv_engine.Engine
module Net = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta
module Ssta = Spv_circuit.Ssta
module G = Spv_circuit.Generators
module Fuzz = Spv_circuit.Fuzz
module Gd = Spv_process.Gate_delay
module Hook = Spv_sizing.Sens_hook
module Rng = Spv_stats.Rng

let tech = Spv_process.Tech.bptm70
let ff = Spv_process.Flipflop.default tech
let z = Spv_stats.Special.big_phi_inv 0.9457

(* ---- the dual domain -------------------------------------------------- *)

let test_dual_arithmetic () =
  let box = I.make ~lo:2.0 ~hi:3.0 in
  let x = S.Dual.var box in
  (* d(x^2)/dx = 2x over [2, 3] *)
  let sq = S.Dual.mul x x in
  check_float ~eps:1e-12 "x^2 value lo" 4.0 (I.lo (S.Dual.v sq));
  check_float ~eps:1e-12 "x^2 value hi" 9.0 (I.hi (S.Dual.v sq));
  Alcotest.(check bool) "x^2 deriv encloses 2x" true
    (I.lo (S.Dual.d sq) <= 4.0 && I.hi (S.Dual.d sq) >= 6.0);
  (* d(sqrt x)/dx = 1/(2 sqrt x) *)
  let r = S.Dual.sqrt_ x in
  Alcotest.(check bool) "sqrt deriv enclosure" true
    (I.lo (S.Dual.d r) <= 1.0 /. (2.0 *. sqrt 3.0)
    && I.hi (S.Dual.d r) >= 1.0 /. (2.0 *. sqrt 2.0));
  (* constants carry zero derivative through arithmetic *)
  let c = S.Dual.add (S.Dual.const 5.0) (S.Dual.scale (S.Dual.const 2.0) 3.0) in
  check_float ~eps:0.0 "const value" 11.0 (I.lo (S.Dual.v c));
  check_float ~eps:0.0 "const deriv" 0.0 (I.hi (S.Dual.d c));
  (* point boxes reproduce concrete arithmetic exactly *)
  let p = S.Dual.var (I.point 2.5) in
  let e = S.Dual.shift (S.Dual.div (S.Dual.const 7.0) p) 1.25 in
  check_float ~eps:0.0 "point value exact" ((7.0 /. 2.5) +. 1.25)
    (I.lo (S.Dual.v e));
  check_float ~eps:1e-15 "point deriv exact" (-7.0 /. (2.5 *. 2.5))
    (I.lo (S.Dual.d e))

let test_dual_unbounded () =
  let straddle = S.Dual.var (I.make ~lo:(-1.0) ~hi:1.0) in
  (match S.Dual.div (S.Dual.const 1.0) straddle with
  | exception S.Dual.Unbounded _ -> ()
  | _ -> Alcotest.fail "division by a zero-straddling interval must raise");
  match S.Dual.sqrt_ straddle with
  | exception S.Dual.Unbounded _ -> ()
  | _ -> Alcotest.fail "sqrt of a negative-reaching interval must raise"

let test_dual_phi () =
  (* d Phi/dx = phi; at a point box the enclosure must bracket it. *)
  let x = S.Dual.var (I.point 0.7) in
  let p = S.Dual.big_phi x in
  let phi = exp (-0.245) /. sqrt (2.0 *. Float.pi) in
  Alcotest.(check bool) "big_phi deriv brackets phi" true
    (I.lo (S.Dual.d p) <= phi && I.hi (S.Dual.d p) >= phi);
  let q = S.Dual.upper_tail x in
  Alcotest.(check bool) "upper_tail deriv brackets -phi" true
    (I.lo (S.Dual.d q) <= -.phi && I.hi (S.Dual.d q) >= -.phi)

(* ---- central finite differences -------------------------------------- *)

(* Concrete stage moments as the sensitivity pass models them. *)
let concrete_moments ?ff net =
  let a = Ssta.analyse_stage ?ff tech net in
  (a.Ssta.total.Gd.nominal, Gd.total_sigma a.Ssta.total)

let fd_check ?ff ~what net g =
  let x = Net.size net g in
  let h = 0.05 *. x in
  let box = I.make ~lo:(x -. (2.0 *. h)) ~hi:(x +. (2.0 *. h)) in
  let sens = S.stage ?ff tech net ~param:(S.Size g) ~box in
  let at v =
    Net.set_size net g v;
    let m = concrete_moments ?ff net in
    Net.set_size net g x;
    m
  in
  let mu0, sg0 = at x in
  let mu_p, sg_p = at (x +. h) in
  let mu_m, sg_m = at (x -. h) in
  let fd p m = (p -. m) /. (2.0 *. h) in
  let vslack = 1e-9 *. Float.max 1.0 (Float.abs mu0) in
  let dslack v0 = (1e-10 *. (Float.abs v0 +. 1.0) /. h) +. 1e-9 in
  let one name (e : S.enclosure) v0 d =
    if not (I.contains ~slack:vslack e.S.value v0) then
      Alcotest.failf "%s %s: value %.9g outside %s" what name v0
        (I.to_string e.S.value);
    if e.S.certified && not (I.contains ~slack:(dslack v0) e.S.deriv d) then
      Alcotest.failf "%s %s: central FD %.9g escapes %s" what name d
        (I.to_string e.S.deriv)
  in
  one "mu" sens.S.s_mu mu0 (fd mu_p mu_m);
  one "sigma" sens.S.s_sigma sg0 (fd sg_p sg_m);
  sens.S.s_mu.S.certified

let knobs_of net =
  let gids = Net.gate_ids net in
  let n = Array.length gids in
  if n <= 3 then Array.to_list gids
  else [ gids.(0); gids.(n / 3); gids.(n / 2); gids.(n - 1) ]

let test_fd_iscas_pipeline () =
  (* The Table II/III pipeline: every knob's enclosure contains its
     central finite differences, and certification is not vacuous. *)
  let nets = G.iscas_pipeline () in
  let total = ref 0 and certified = ref 0 in
  Array.iteri
    (fun i net ->
      List.iter
        (fun g ->
          incr total;
          if fd_check ~ff ~what:(Printf.sprintf "stage %d gate %d" i g) net g
          then incr certified)
        (knobs_of net))
    nets;
  Alcotest.(check bool)
    (Printf.sprintf "certification non-vacuous (%d/%d)" !certified !total)
    true (!certified > 0)

let test_fd_factor_param () =
  (* The Vth knob: d(nominal)/d(factor) against Sta.run_with_factors. *)
  let net = G.c432 () in
  let g = (Net.gate_ids net).(0) in
  let h = 0.02 in
  let box = I.make ~lo:(1.0 -. (2.0 *. h)) ~hi:(1.0 +. (2.0 *. h)) in
  let sens = S.stage tech net ~param:(S.Factor g) ~box in
  let at f =
    let factors = Array.make (Net.n_nodes net) 1.0 in
    factors.(g) <- f;
    (Sta.run_with_factors tech net ~factors).Sta.delay
  in
  let d0 = at 1.0 in
  let fd = (at (1.0 +. h) -. at (1.0 -. h)) /. (2.0 *. h) in
  let e = sens.S.s_nominal in
  Alcotest.(check bool) "nominal value contained" true
    (I.contains ~slack:(1e-9 *. d0) e.S.value d0);
  if e.S.certified then
    Alcotest.(check bool) "factor FD contained" true
      (I.contains ~slack:1e-6 e.S.deriv fd)

let test_fd_fuzzed_netlists () =
  (* >= 50 fuzzed single-stage netlists, zero FD escapes. *)
  let n_cases = 55 in
  let total = ref 0 and certified = ref 0 in
  for seed = 1 to n_cases do
    let streams = Rng.split (Rng.create ~seed) 2 in
    let config = { Fuzz.default_config with Fuzz.max_gates = 40 } in
    let circuits = Fuzz.generate ~config streams.(0) in
    Array.iter
      (fun net ->
        List.iter
          (fun g ->
            incr total;
            if
              fd_check ~ff
                ~what:(Printf.sprintf "seed %d gate %d" seed g)
                net g
            then incr certified)
          (knobs_of net))
      circuits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fuzzed certification non-vacuous (%d/%d)" !certified
       !total)
    true (!certified > 0)

let test_fd_yield () =
  (* d(Clark yield)/d(size) through the engine context, against the
     closed-form estimator re-evaluated per stencil point. *)
  let nets = G.iscas_pipeline () in
  let ctx = Engine.Ctx.of_circuits ~ff tech nets in
  let g0 = Engine.Ctx.delay_distribution ctx in
  let t_target =
    Spv_stats.Gaussian.mu g0 +. Spv_stats.Gaussian.sigma g0
  in
  let checked = ref 0 in
  for s = 0 to Array.length nets - 1 do
    let net = Engine.Ctx.netlist ctx s in
    let g = (Net.gate_ids net).(0) in
    let x = Net.size net g in
    let h = 0.05 *. x in
    let box = I.make ~lo:(x -. (2.0 *. h)) ~hi:(x +. (2.0 *. h)) in
    let enc =
      S.ctx_yield ctx ~model:S.Clark ~stage:s ~param:(S.Size g) ~box ~t_target
    in
    let at v =
      Net.set_size net g v;
      let c = Engine.Ctx.refresh_stage ctx s in
      let y =
        (Engine.yield ~method_:Engine.Analytic_clark c ~t_target).Engine.value
      in
      Net.set_size net g x;
      y
    in
    let y0 = at x in
    Alcotest.(check bool)
      (Printf.sprintf "stage %d yield value contained" s)
      true
      (I.contains ~slack:1e-9 enc.S.value y0);
    if enc.S.certified then begin
      incr checked;
      let fd = (at (x +. h) -. at (x -. h)) /. (2.0 *. h) in
      Alcotest.(check bool)
        (Printf.sprintf "stage %d yield FD contained" s)
        true
        (I.contains ~slack:1e-8 enc.S.deriv fd)
    end
  done;
  Alcotest.(check bool) "at least one yield knob certified" true (!checked > 0)

(* ---- parameters and certificates ------------------------------------- *)

let test_param_validation () =
  let net = G.c432 () in
  let g = (Net.gate_ids net).(0) in
  check_raises_invalid "box missing current size" (fun () ->
      S.stage tech net ~param:(S.Size g) ~box:(I.make ~lo:50.0 ~hi:60.0));
  check_raises_invalid "not a gate" (fun () ->
      S.stage tech net ~param:(S.Size 0) ~box:(I.make ~lo:0.5 ~hi:2.0));
  check_raises_invalid "factor box missing 1.0" (fun () ->
      S.stage tech net ~param:(S.Factor g) ~box:(I.make ~lo:2.0 ~hi:3.0))

let test_monotone_sign () =
  let certified value deriv =
    { S.value; deriv; certified = true }
  in
  let pos = certified (I.point 1.0) (I.make ~lo:0.5 ~hi:2.0) in
  let neg = certified (I.point 1.0) (I.make ~lo:(-2.0) ~hi:(-0.5)) in
  let mixed = certified (I.point 1.0) (I.make ~lo:(-1.0) ~hi:1.0) in
  Alcotest.(check bool) "increasing" true (S.monotone_sign pos = Some S.Increasing);
  Alcotest.(check bool) "decreasing" true (S.monotone_sign neg = Some S.Decreasing);
  Alcotest.(check bool) "mixed" true (S.monotone_sign mixed = None)

(* ---- cache invalidation ----------------------------------------------- *)

let test_cache_refresh_stage () =
  let nets = [| G.c432 (); G.c1908 () |] in
  let ctx = Engine.Ctx.of_circuits ~ff tech nets in
  let cache = S.Cache.create () in
  let net = Engine.Ctx.netlist ctx 0 in
  let g = (Net.gate_ids net).(0) in
  let x = Net.size net g in
  let box = I.make ~lo:(0.9 *. x) ~hi:(1.1 *. x) in
  let s1 = S.ctx_stage ~cache ctx ~stage:0 ~param:(S.Size g) ~box in
  let s2 = S.ctx_stage ~cache ctx ~stage:0 ~param:(S.Size g) ~box in
  Alcotest.(check int) "one miss" 1 (S.Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (S.Cache.hits cache);
  Alcotest.(check bool) "memoised result identical" true (s1 = s2);
  (* A different box is a different key. *)
  let box' = I.make ~lo:(0.8 *. x) ~hi:(1.2 *. x) in
  ignore (S.ctx_stage ~cache ctx ~stage:0 ~param:(S.Size g) ~box:box');
  Alcotest.(check int) "box keyed" 2 (S.Cache.misses cache);
  (* refresh_stage bumps the revision: stage 0 entries invalidate,
     stage 1 entries survive. *)
  let net1 = Engine.Ctx.netlist ctx 1 in
  let g1 = (Net.gate_ids net1).(0) in
  let box1 =
    I.make ~lo:(0.9 *. Net.size net1 g1) ~hi:(1.1 *. Net.size net1 g1)
  in
  ignore (S.ctx_stage ~cache ctx ~stage:1 ~param:(S.Size g1) ~box:box1);
  Alcotest.(check int) "stage 1 primed" 3 (S.Cache.misses cache);
  let ctx' = Engine.Ctx.refresh_stage ctx 0 in
  ignore (S.ctx_stage ~cache ctx' ~stage:0 ~param:(S.Size g) ~box);
  Alcotest.(check int) "refresh invalidates stage 0" 4 (S.Cache.misses cache);
  ignore (S.ctx_stage ~cache ctx' ~stage:1 ~param:(S.Size g1) ~box:box1);
  Alcotest.(check int) "stage 1 entry survives" 2 (S.Cache.hits cache)

let test_cache_refresh_block () =
  let nets = [| G.c432 (); G.c1908 () |] in
  let ctx = Engine.Ctx.of_circuits ~mode:Engine.Hierarchical ~ff tech nets in
  let cache = S.Cache.create () in
  let net = Engine.Ctx.netlist ctx 0 in
  let g = (Net.gate_ids net).(0) in
  let x = Net.size net g in
  let box = I.make ~lo:(0.9 *. x) ~hi:(1.1 *. x) in
  ignore (S.ctx_stage ~cache ctx ~stage:0 ~param:(S.Size g) ~box);
  ignore (S.ctx_stage ~cache ctx ~stage:0 ~param:(S.Size g) ~box);
  Alcotest.(check int) "primed" 1 (S.Cache.misses cache);
  let ctx' = Engine.Ctx.refresh_block ctx ~stage:0 ~block:0 in
  ignore (S.ctx_stage ~cache ctx' ~stage:0 ~param:(S.Size g) ~box);
  Alcotest.(check int) "refresh_block invalidates" 2 (S.Cache.misses cache)

(* ---- global sizer yield skip ------------------------------------------ *)

let with_yield_skip enabled f =
  Dom.install_sizing_prune ();
  let was = Hook.is_enabled () in
  Hook.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Hook.set_enabled was) f

let test_global_opt_skip_identity () =
  (* The certified stage skip must leave ensure_yield's result
     byte-identical. *)
  let module Go = Spv_sizing.Global_opt in
  let nets () = [| G.c432 (); G.c1908 () |] in
  let module L = Spv_sizing.Lagrangian in
  let z2 =
    Spv_stats.Special.big_phi_inv
      (Spv_core.Yield.per_stage_yield_target ~yield:0.8 ~n_stages:2)
  in
  let probe = G.c432 () in
  let fast = L.minimum_achievable_delay ~ff tech probe ~z:z2 in
  let t_target = fast *. 1.05 in
  let run enabled =
    with_yield_skip enabled (fun () ->
        Hook.reset_stats ();
        let r =
          Go.ensure_yield ~ff tech (nets ()) ~t_target ~yield_target:0.8
        in
        (r, Hook.stats.Hook.probes_skipped))
  in
  let r_off, _ = run false in
  let r_on, _skipped = run true in
  Alcotest.(check bool) "yields identical" true
    (r_off.Go.pipeline_yield = r_on.Go.pipeline_yield);
  Alcotest.(check bool) "targets identical" true
    (r_off.Go.stage_targets = r_on.Go.stage_targets);
  Alcotest.(check bool) "areas identical" true
    (r_off.Go.stage_areas = r_on.Go.stage_areas)

let suite =
  [
    quick "dual arithmetic" test_dual_arithmetic;
    quick "dual unbounded" test_dual_unbounded;
    quick "dual phi" test_dual_phi;
    quick "param validation" test_param_validation;
    quick "monotone sign" test_monotone_sign;
    slow "FD containment: iscas pipeline" test_fd_iscas_pipeline;
    quick "FD containment: factor knob" test_fd_factor_param;
    slow "FD containment: 55 fuzzed netlists" test_fd_fuzzed_netlists;
    slow "FD containment: clark yield" test_fd_yield;
    quick "cache: refresh_stage" test_cache_refresh_stage;
    quick "cache: refresh_block" test_cache_refresh_block;
    slow "global opt skip identity" test_global_opt_skip_identity;
  ]
