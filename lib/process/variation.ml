type shift = { dvth : float; dleff_rel : float }

let quadrature a b = sqrt ((a *. a) +. (b *. b))

let rel_sigma_inter (tech : Tech.t) =
  quadrature
    (Tech.delay_sensitivity_vth tech *. tech.sigma_vth_inter)
    (Tech.delay_sensitivity_leff tech *. tech.sigma_leff_rel_inter)

let rel_sigma_sys (tech : Tech.t) =
  (* Vth and Leff systematic shifts share one field, so their delay
     contributions add linearly, not in quadrature. *)
  (Tech.delay_sensitivity_vth tech *. tech.sigma_vth_sys)
  +. (Tech.delay_sensitivity_leff tech *. tech.sigma_leff_rel_sys)

let rel_sigma_rand (tech : Tech.t) ~size =
  assert (size > 0.0);
  Tech.delay_sensitivity_vth tech *. tech.sigma_vth_rand /. sqrt size

let delay_factor_linear tech { dvth; dleff_rel } =
  Alpha_power.delay_factor_linear tech ~dvth ~dleff_rel

let delay_factor_exact tech { dvth; dleff_rel } =
  Alpha_power.delay_factor tech ~dvth ~dleff_rel
