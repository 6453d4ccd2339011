open Helpers
module Tech = Spv_process.Tech
module Ap = Spv_process.Alpha_power
module V = Spv_process.Variation

(* --- Tech ----------------------------------------------------------- *)

let test_tech_defaults () =
  let t = Tech.bptm70 in
  check_float "vdd" 1.0 t.Tech.vdd;
  check_float "vth" 0.2 t.Tech.vth0;
  check_close ~rel:1e-12 "vth sensitivity" (1.3 /. 0.8)
    (Tech.delay_sensitivity_vth t);
  Alcotest.(check bool) "leff sensitivity > 1" true
    (Tech.delay_sensitivity_leff t > 1.0)

let test_tech_overrides () =
  let t = Tech.with_inter_vth Tech.bptm70 ~sigma_mv:25.0 in
  check_float "inter override" 0.025 t.Tech.sigma_vth_inter;
  let t = Tech.with_random_vth t ~sigma_mv:0.0 in
  check_float "random zero" 0.0 t.Tech.sigma_vth_rand;
  check_raises_invalid "negative" (fun () ->
      Tech.with_sys_vth Tech.bptm70 ~sigma_mv:(-1.0))

let test_no_variation () =
  let t = Tech.no_variation Tech.bptm70 in
  check_float "inter" 0.0 t.Tech.sigma_vth_inter;
  check_float "rand" 0.0 t.Tech.sigma_vth_rand;
  check_float "sys" 0.0 t.Tech.sigma_vth_sys;
  check_float "leff inter" 0.0 t.Tech.sigma_leff_rel_inter

(* --- Alpha-power ----------------------------------------------------- *)

let test_nominal_point () =
  check_float ~eps:1e-12 "delay factor at nominal" 1.0
    (Ap.delay_factor Tech.bptm70 ~dvth:0.0 ~dleff_rel:0.0);
  check_float ~eps:1e-12 "linear factor at nominal" 1.0
    (Ap.delay_factor_linear Tech.bptm70 ~dvth:0.0 ~dleff_rel:0.0)

let test_monotonicity () =
  let t = Tech.bptm70 in
  Alcotest.(check bool) "higher vth slower" true
    (Ap.delay_factor t ~dvth:0.05 ~dleff_rel:0.0 > 1.0);
  Alcotest.(check bool) "lower vth faster" true
    (Ap.delay_factor t ~dvth:(-0.05) ~dleff_rel:0.0 < 1.0);
  Alcotest.(check bool) "longer channel slower" true
    (Ap.delay_factor t ~dvth:0.0 ~dleff_rel:0.05 > 1.0)

let test_linearisation_error_small () =
  let t = Tech.bptm70 in
  (* Within +-3 sigma of the largest Vth budget (40 mV inter) the
     linearisation should stay within ~4%. *)
  List.iter
    (fun dvth ->
      check_in_range
        (Printf.sprintf "error at %.0f mV" (1000.0 *. dvth))
        ~lo:0.0 ~hi:0.05
        (Ap.linearisation_error t ~dvth))
    [ -0.12; -0.06; 0.0; 0.06; 0.12 ]

let test_current_delay_reciprocal () =
  let t = Tech.bptm70 in
  let i = Ap.drive_current_rel t ~dvth:0.03 ~dleff_rel:0.01 in
  let d = Ap.delay_factor t ~dvth:0.03 ~dleff_rel:0.01 in
  check_close ~rel:1e-12 "d = 1/i" (1.0 /. i) d

(* --- Variation ------------------------------------------------------- *)

let test_rel_sigma_components () =
  let t = Tech.bptm70 in
  Alcotest.(check bool) "inter sigma positive" true (V.rel_sigma_inter t > 0.0);
  Alcotest.(check bool) "sys sigma positive" true (V.rel_sigma_sys t > 0.0);
  (* Random component shrinks as 1/sqrt(size). *)
  check_close ~rel:1e-12 "rdf scaling"
    (V.rel_sigma_rand t ~size:1.0 /. 2.0)
    (V.rel_sigma_rand t ~size:4.0);
  let zero = Tech.no_variation t in
  check_float "no variation inter" 0.0 (V.rel_sigma_inter zero);
  check_float "no variation rand" 0.0 (V.rel_sigma_rand zero ~size:1.0)

(* The sampling tests below run the gate-level kernel on one inverter
   under a technology with a single variation component, and read the
   component back from the delay factor. *)
let only_component (t : Tech.t) ~vth_inter ~leff_inter ~vth_sys ~leff_sys
    ~vth_rand =
  {
    t with
    Tech.sigma_vth_inter = (if vth_inter then t.Tech.sigma_vth_inter else 0.0);
    sigma_leff_rel_inter = (if leff_inter then t.Tech.sigma_leff_rel_inter else 0.0);
    sigma_vth_sys = (if vth_sys then t.Tech.sigma_vth_sys else 0.0);
    sigma_leff_rel_sys = (if leff_sys then t.Tech.sigma_leff_rel_sys else 0.0);
    sigma_vth_rand = (if vth_rand then t.Tech.sigma_vth_rand else 0.0);
  }

(* dVth of each trial, from a linear factor 1 + S_vth dVth. *)
let dvth_samples ?size t ~seed =
  let s_vth = Tech.delay_sensitivity_vth t in
  Array.map
    (fun f -> (f -. 1.0) /. s_vth)
    (inverter_factors ?size t ~seed ~n:20_000)

let test_inter_moments () =
  let t =
    only_component Tech.bptm70 ~vth_inter:true ~leff_inter:false ~vth_sys:false
      ~leff_sys:false ~vth_rand:false
  in
  let xs = dvth_samples t ~seed:80 in
  check_in_range "inter dvth std" ~lo:0.038 ~hi:0.042
    (Spv_stats.Descriptive.std xs);
  check_in_range "inter dvth mean" ~lo:(-0.001) ~hi:0.001
    (Spv_stats.Descriptive.mean xs)

let test_rdf_size_scaling () =
  let t =
    only_component Tech.bptm70 ~vth_inter:false ~leff_inter:false
      ~vth_sys:false ~leff_sys:false ~vth_rand:true
  in
  let std_at size = Spv_stats.Descriptive.std (dvth_samples ~size t ~seed:81) in
  let s1 = std_at 1.0 and s4 = std_at 4.0 in
  check_in_range "scaling ratio" ~lo:1.9 ~hi:2.1 (s1 /. s4)

(* One stage's field is the trial's first normal (a 1x1 factor of 1):
   the systematic Vth and Leff shifts are that value times their
   sigmas, both in the factor. *)
let test_sys_scaled_deterministic () =
  let t =
    only_component Tech.bptm70 ~vth_inter:false ~leff_inter:false
      ~vth_sys:true ~leff_sys:true ~vth_rand:false
  in
  let field = Spv_stats.Rng.gaussian (Spv_stats.Rng.create ~seed:82) in
  let expected =
    1.0
    +. (Tech.delay_sensitivity_vth t *. (field *. t.Tech.sigma_vth_sys))
    +. (Tech.delay_sensitivity_leff t *. (field *. t.Tech.sigma_leff_rel_sys))
  in
  check_close ~rel:1e-12 "factor" expected
    (inverter_factors t ~seed:82 ~n:1).(0)

let test_delay_factor_consistency () =
  let t = Tech.bptm70 in
  let shift = { V.dvth = 0.02; dleff_rel = 0.01 } in
  check_close ~rel:1e-12 "linear matches alpha_power"
    (Ap.delay_factor_linear t ~dvth:0.02 ~dleff_rel:0.01)
    (V.delay_factor_linear t shift);
  check_close ~rel:1e-12 "exact matches alpha_power"
    (Ap.delay_factor t ~dvth:0.02 ~dleff_rel:0.01)
    (V.delay_factor_exact t shift)

let suite =
  [
    quick "tech defaults" test_tech_defaults;
    quick "tech overrides" test_tech_overrides;
    quick "no_variation" test_no_variation;
    quick "alpha-power nominal" test_nominal_point;
    quick "alpha-power monotone" test_monotonicity;
    quick "linearisation error" test_linearisation_error_small;
    quick "current/delay reciprocal" test_current_delay_reciprocal;
    quick "relative sigmas" test_rel_sigma_components;
    slow "inter sampling moments" test_inter_moments;
    slow "rdf size scaling" test_rdf_size_scaling;
    quick "systematic scaling" test_sys_scaled_deterministic;
    quick "delay factor consistency" test_delay_factor_consistency;
  ]
