module G = Spv_stats.Gaussian

let independent_exact pipeline ~t_target =
  Array.fold_left
    (fun acc g ->
      let s = G.sigma g in
      let factor =
        if s = 0.0 then if G.mu g <= t_target then 1.0 else 0.0
        else G.cdf g t_target
      in
      acc *. factor)
    1.0
    (Pipeline.stage_gaussians pipeline)

let clark_gaussian ?order pipeline ~t_target =
  let tp = Pipeline.delay_distribution ?order pipeline in
  if G.sigma tp = 0.0 then if G.mu tp <= t_target then 1.0 else 0.0
  else G.cdf tp t_target

(* ---- stable yield-loss complements ---------------------------------- *)

(* The tails below never compute [1. -. cdf]: once a stage yield rounds
   to 1 the subtraction reports a zero loss, which is exactly wrong for
   the high-sigma targets where the loss is the quantity of interest. *)

(* log Phi(z), full relative precision on both sides: log1p of the
   stable upper tail for z >= 0, the Mills-ratio-backed log_big_phi in
   the left tail. *)
let log_stage_cdf z =
  if z >= 0.0 then Float.log1p (-.Spv_stats.Special.upper_tail z)
  else Spv_stats.Special.log_big_phi z

let independent_exact_loss pipeline ~t_target =
  let acc = ref 0.0 in
  Array.iter
    (fun g ->
      let s = G.sigma g in
      if s = 0.0 then begin
        if G.mu g > t_target then acc := neg_infinity
      end
      else acc := !acc +. log_stage_cdf ((t_target -. G.mu g) /. s))
    (Pipeline.stage_gaussians pipeline);
  if !acc = neg_infinity then 1.0 else -.Float.expm1 !acc

let clark_gaussian_loss ?order pipeline ~t_target =
  let tp = Pipeline.delay_distribution ?order pipeline in
  G.sf tp t_target

let nearly_independent pipeline =
  let corr = Pipeline.correlation pipeline in
  let n = Pipeline.n_stages pipeline in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if abs_float (Spv_stats.Correlation.get corr i j) > 1e-9 then ok := false
    done
  done;
  !ok

let estimate pipeline ~t_target =
  if nearly_independent pipeline then independent_exact pipeline ~t_target
  else clark_gaussian pipeline ~t_target

let loss pipeline ~t_target =
  if nearly_independent pipeline then independent_exact_loss pipeline ~t_target
  else clark_gaussian_loss pipeline ~t_target

let target_delay_for_yield ?order pipeline ~yield =
  if not (yield > 0.0 && yield < 1.0) then
    invalid_arg "Yield.target_delay_for_yield: yield outside (0,1)";
  let tp = Pipeline.delay_distribution ?order pipeline in
  G.mu tp +. (G.sigma tp *. Spv_stats.Special.big_phi_inv yield)

let per_stage_yield_target ~yield ~n_stages =
  if not (yield > 0.0 && yield < 1.0) then
    invalid_arg "Yield.per_stage_yield_target: yield outside (0,1)";
  if n_stages <= 0 then invalid_arg "Yield.per_stage_yield_target: n <= 0";
  yield ** (1.0 /. float_of_int n_stages)

let stage_yields pipeline ~t_target =
  Array.map
    (fun g ->
      if G.sigma g = 0.0 then if G.mu g <= t_target then 1.0 else 0.0
      else G.cdf g t_target)
    (Pipeline.stage_gaussians pipeline)

let monte_carlo_lhs pipeline rng ~n ~t_target =
  if n <= 0 then invalid_arg "Yield.monte_carlo_lhs: n <= 0";
  let mvn = Pipeline.mvn pipeline in
  let draws = Spv_stats.Sampling.mvn_lhs mvn rng ~n in
  let pass =
    Array.fold_left
      (fun acc draw ->
        let worst = Array.fold_left Float.max neg_infinity draw in
        if worst <= t_target then acc + 1 else acc)
      0 draws
  in
  float_of_int pass /. float_of_int n

let wilson_interval ~successes ~trials ~confidence =
  if trials <= 0 then invalid_arg "Yield.wilson_interval: trials <= 0";
  if successes < 0 || successes > trials then
    invalid_arg "Yield.wilson_interval: successes outside [0, trials]";
  if not (confidence > 0.0 && confidence < 1.0) then
    invalid_arg "Yield.wilson_interval: confidence outside (0,1)";
  let z = Spv_stats.Special.big_phi_inv (1.0 -. ((1.0 -. confidence) /. 2.0)) in
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))
