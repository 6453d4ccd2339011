open Helpers
module S = Spv_stats.Special

(* Reference values from Abramowitz & Stegun / standard tables.  erf and
   erfc go through the incomplete gamma series and continued fraction,
   so they hold to a few ulps; [check_rel] has no absolute floor, so
   the deep-tail erfc values are checked in relative terms too. *)

let check_rel ?(rel = 1e-14) name expected actual =
  if not (abs_float (actual -. expected) <= rel *. abs_float expected) then
    Alcotest.failf "%s: %.17g, want %.17g (rel %.1e)" name actual expected rel

let test_erf_values () =
  check_float ~eps:0.0 "erf(0)" 0.0 (S.erf 0.0);
  check_rel "erf(0.1)" 0.1124629160182849 (S.erf 0.1);
  check_rel "erf(0.5)" 0.5204998778130465 (S.erf 0.5);
  check_rel "erf(1)" 0.8427007929497149 (S.erf 1.0);
  check_rel "erf(2)" 0.9953222650189527 (S.erf 2.0);
  check_rel "erf(3)" 0.9999779095030014 (S.erf 3.0);
  check_rel "erf(-1)" (-0.8427007929497149) (S.erf (-1.0))

let test_erfc_values () =
  check_float ~eps:0.0 "erfc(0)" 1.0 (S.erfc 0.0);
  check_rel "erfc(1)" 0.15729920705028513 (S.erfc 1.0);
  check_rel "erfc(3)" 2.2090496998585441e-05 (S.erfc 3.0);
  check_rel "erfc(5)" 1.5374597944280349e-12 (S.erfc 5.0);
  check_rel "erfc(-1)" (2.0 -. 0.15729920705028513) (S.erfc (-1.0))

let test_erf_erfc_complementarity () =
  List.iter
    (fun x -> check_float ~eps:1e-12 "erf + erfc = 1" 1.0 (S.erf x +. S.erfc x))
    [ -3.0; -1.0; -0.1; 0.0; 0.5; 1.5; 4.0 ]

let test_phi () =
  check_float ~eps:1e-12 "phi(0)" (1.0 /. sqrt (2.0 *. Float.pi)) (S.phi 0.0);
  check_close ~rel:1e-10 "phi(1)" 0.24197072451914337 (S.phi 1.0);
  check_float ~eps:1e-15 "phi symmetric" (S.phi 1.3) (S.phi (-1.3))

let test_big_phi () =
  check_float ~eps:1e-12 "Phi(0)" 0.5 (S.big_phi 0.0);
  check_close ~rel:1e-8 "Phi(1.96)" 0.9750021048517795 (S.big_phi 1.96);
  check_close ~rel:1e-8 "Phi(-1)" 0.15865525393145707 (S.big_phi (-1.0));
  check_close ~rel:1e-8 "Phi(2.5)" 0.9937903346742238 (S.big_phi 2.5)

let test_big_phi_inv_roundtrip () =
  List.iter
    (fun p ->
      check_float ~eps:1e-9 (Printf.sprintf "Phi(Phi^-1(%g))" p) p
        (S.big_phi (S.big_phi_inv p)))
    [ 1e-10; 1e-6; 0.01; 0.02425; 0.3; 0.5; 0.8; 0.9283; 0.97575; 0.999; 1.0 -. 1e-9 ]

let test_big_phi_inv_values () =
  check_float ~eps:1e-9 "Phi^-1(0.5)" 0.0 (S.big_phi_inv 0.5);
  check_close ~rel:1e-8 "Phi^-1(0.975)" 1.959963984540054 (S.big_phi_inv 0.975);
  check_close ~rel:1e-8 "Phi^-1(0.8)" 0.8416212335729143 (S.big_phi_inv 0.8)

let test_big_phi_inv_domain () =
  check_raises_invalid "p=0" (fun () -> S.big_phi_inv 0.0);
  check_raises_invalid "p=1" (fun () -> S.big_phi_inv 1.0);
  check_raises_invalid "p=-1" (fun () -> S.big_phi_inv (-1.0));
  check_raises_invalid "p=2" (fun () -> S.big_phi_inv 2.0)

let test_log_big_phi () =
  List.iter
    (fun x ->
      check_close ~rel:1e-8
        (Printf.sprintf "log Phi(%g) consistent" x)
        (log (S.big_phi x))
        (S.log_big_phi x))
    [ -5.0; -2.0; 0.0; 1.0 ];
  (* Deep tail: compare against the asymptotic identity via erfc. *)
  let x = -20.0 in
  let expected = log (0.5 *. S.erfc (-.x /. sqrt 2.0)) in
  check_close ~rel:1e-6 "log Phi(-20)" expected (S.log_big_phi x)

let test_upper_tail () =
  (* Moderate range: agrees with the naive complement while that is
     still well-conditioned. *)
  check_close ~rel:1e-12 "tail at 0" 0.5 (S.upper_tail 0.0);
  check_close ~rel:1e-10 "tail at 1" (1.0 -. S.big_phi 1.0) (S.upper_tail 1.0);
  check_close ~rel:1e-9 "tail at 3" (1.0 -. S.big_phi 3.0) (S.upper_tail 3.0);
  (* Deep tail: 1. -. big_phi cancels to 0 past ~8 sigma, but the
     erfc-backed tail keeps full relative precision (reference values
     from the asymptotic series / mpmath). *)
  check_close ~rel:1e-9 "tail at 8" 6.22096057427178e-16 (S.upper_tail 8.0);
  check_close ~rel:1e-9 "tail at 10" 7.61985302416053e-24 (S.upper_tail 10.0);
  check_close ~rel:1e-8 "tail at 20" 2.75362411860623e-89 (S.upper_tail 20.0);
  Alcotest.(check bool) "naive complement underflows at 10" true
    (1.0 -. S.big_phi 10.0 = 0.0);
  (* Left side is the well-conditioned CDF reflection. *)
  check_close ~rel:1e-12 "tail at -2" (S.big_phi 2.0) (S.upper_tail (-2.0))

let test_huge_arguments () =
  (* Past |x| ~ 1.34e154, x *. x overflows inside erfc; the tails must
     still saturate to exact 0 / 1, never NaN. *)
  List.iter
    (fun x ->
      let name = Printf.sprintf "%g" x in
      Alcotest.(check bool) ("big_phi " ^ name) true (S.big_phi x = 1.0);
      Alcotest.(check bool) ("big_phi -" ^ name) true (S.big_phi (-.x) = 0.0);
      Alcotest.(check bool) ("upper_tail " ^ name) true (S.upper_tail x = 0.0);
      Alcotest.(check bool) ("upper_tail -" ^ name) true
        (S.upper_tail (-.x) = 1.0))
    [ 1e300; Float.infinity ]

let test_normal_wrappers () =
  check_float ~eps:1e-12 "cdf at mean" 0.5 (S.normal_cdf ~mu:10.0 ~sigma:2.0 10.0);
  check_close ~rel:1e-10 "pdf peak" (S.phi 0.0 /. 2.0)
    (S.normal_pdf ~mu:10.0 ~sigma:2.0 10.0);
  check_close ~rel:1e-10 "quantile"
    (10.0 +. (2.0 *. S.big_phi_inv 0.9))
    (S.normal_quantile ~mu:10.0 ~sigma:2.0 ~p:0.9);
  (* Degenerate sigma: step CDF. *)
  check_float "step below" 0.0 (S.normal_cdf ~mu:5.0 ~sigma:0.0 4.9);
  check_float "step above" 1.0 (S.normal_cdf ~mu:5.0 ~sigma:0.0 5.0)

let prop_phi_inv_monotone =
  prop "Phi^-1 monotone" QCheck2.Gen.(pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0))
    (fun (a, b) ->
      let a = Float.max a 1e-12 and b = Float.max b 1e-12 in
      a = b || (a < b) = (S.big_phi_inv a < S.big_phi_inv b))

let prop_cdf_bounds =
  prop "Phi in [0,1]" QCheck2.Gen.(float_range (-50.0) 50.0)
    (fun x ->
      let v = S.big_phi x in
      v >= 0.0 && v <= 1.0)

let suite =
  [
    quick "erf values" test_erf_values;
    quick "erfc values" test_erfc_values;
    quick "erf/erfc complementarity" test_erf_erfc_complementarity;
    quick "phi" test_phi;
    quick "big_phi" test_big_phi;
    quick "big_phi_inv roundtrip" test_big_phi_inv_roundtrip;
    quick "big_phi_inv values" test_big_phi_inv_values;
    quick "big_phi_inv domain" test_big_phi_inv_domain;
    quick "log_big_phi" test_log_big_phi;
    quick "upper_tail" test_upper_tail;
    quick "huge arguments" test_huge_arguments;
    quick "normal wrappers" test_normal_wrappers;
    prop_phi_inv_monotone;
    prop_cdf_bounds;
  ]
