module G = Spv_stats.Gaussian
module Gd = Spv_process.Gate_delay

type policy = { range : float }

let default_policy = { range = 0.10 }

let check policy =
  if policy.range < 0.0 then invalid_arg "Adaptive: negative range"

(* Aggregate relative inter-die sigma and the per-stage decomposition
   pieces the conditional model needs. *)
type decomposition = {
  mus : float array;
  s_inter : float array;
  residual : float array;  (** sqrt(sys^2 + rand^2) per stage *)
  corr_res : Spv_stats.Correlation.t;
  r_inter : float;
}

let decompose pipeline =
  let n = Pipeline.n_stages pipeline in
  let stages = Pipeline.stages pipeline in
  let mus = Array.map Stage.mu stages in
  let s_inter =
    Array.map (fun s -> s.Stage.delay.Gd.sigma_inter) stages
  in
  let residual =
    Array.map
      (fun s ->
        let d = s.Stage.delay in
        sqrt
          ((d.Gd.sigma_sys *. d.Gd.sigma_sys)
          +. (d.Gd.sigma_rand *. d.Gd.sigma_rand)))
      stages
  in
  let corr = Pipeline.correlation pipeline in
  let sigmas = Array.map Stage.sigma stages in
  let corr_res =
    Spv_stats.Correlation.of_function ~n (fun i j ->
        let cov_total =
          Spv_stats.Correlation.get corr i j *. sigmas.(i) *. sigmas.(j)
        in
        let cov_res = cov_total -. (s_inter.(i) *. s_inter.(j)) in
        let denom = residual.(i) *. residual.(j) in
        if denom <= 0.0 then 0.0
        else Float.max (-1.0) (Float.min 1.0 (cov_res /. denom)))
  in
  let total_mu = Array.fold_left ( +. ) 0.0 mus in
  let total_si = Array.fold_left ( +. ) 0.0 s_inter in
  {
    mus;
    s_inter;
    residual;
    corr_res;
    r_inter = (if total_mu > 0.0 then total_si /. total_mu else 0.0);
  }

let correction policy d ~i_std =
  let shift = d.r_inter *. i_std in
  let ideal = if 1.0 +. shift <= 1e-6 then 1.0 +. policy.range
              else 1.0 /. (1.0 +. shift) in
  Float.max (1.0 -. policy.range) (Float.min (1.0 +. policy.range) ideal)

let conditional_yield policy d ~t_target ~i_std =
  let c = correction policy d ~i_std in
  let n = Array.length d.mus in
  let gs =
    Array.init n (fun k ->
        G.make
          ~mu:(c *. (d.mus.(k) +. (d.s_inter.(k) *. i_std)))
          ~sigma:(c *. d.residual.(k)))
  in
  let tp = Clark.max_n gs ~corr:d.corr_res in
  if G.sigma tp = 0.0 then if G.mu tp <= t_target then 1.0 else 0.0
  else G.cdf tp t_target

let integrate_standard_normal f =
  (* Composite 32-pt Gauss-Legendre of f(i) phi(i) over [-8, 8]. *)
  let panels = 8 in
  let acc = ref 0.0 in
  let w = 16.0 /. float_of_int panels in
  for p = 0 to panels - 1 do
    let lo = -8.0 +. (float_of_int p *. w) in
    acc :=
      !acc
      +. Spv_stats.Quadrature.gauss_legendre_32
           ~f:(fun i -> f i *. Spv_stats.Special.phi i)
           ~lo ~hi:(lo +. w)
  done;
  !acc

let conditional_loss policy d ~t_target ~i_std =
  let c = correction policy d ~i_std in
  let n = Array.length d.mus in
  let gs =
    Array.init n (fun k ->
        G.make
          ~mu:(c *. (d.mus.(k) +. (d.s_inter.(k) *. i_std)))
          ~sigma:(c *. d.residual.(k)))
  in
  let tp = Clark.max_n gs ~corr:d.corr_res in
  G.sf tp t_target

let yield_with_abb ?(policy = default_policy) pipeline ~t_target =
  check policy;
  let d = decompose pipeline in
  integrate_standard_normal (fun i_std ->
      conditional_yield policy d ~t_target ~i_std)

let loss_with_abb ?(policy = default_policy) pipeline ~t_target =
  check policy;
  let d = decompose pipeline in
  integrate_standard_normal (fun i_std ->
      conditional_loss policy d ~t_target ~i_std)

let yield_gain ?policy pipeline ~t_target =
  yield_with_abb ?policy pipeline ~t_target
  -. Yield.clark_gaussian pipeline ~t_target

(* ---- single-trial sampler kernel ------------------------------------ *)

type sampler = {
  sm_policy : policy;
  sm_d : decomposition;
  sm_residual_mvn : Spv_stats.Mvn.t;
}

let sampler ?(policy = default_policy) pipeline =
  check policy;
  let d = decompose pipeline in
  let k = Array.length d.mus in
  let residual_mvn =
    Spv_stats.Mvn.create ~mus:(Array.make k 0.0) ~sigmas:d.residual
      ~corr:d.corr_res
  in
  { sm_policy = policy; sm_d = d; sm_residual_mvn = residual_mvn }

let sample_delay sm rng =
  let d = sm.sm_d in
  let k = Array.length d.mus in
  let i_std = Spv_stats.Rng.gaussian rng in
  let c = correction sm.sm_policy d ~i_std in
  let res = Spv_stats.Mvn.sample sm.sm_residual_mvn rng in
  let worst = ref neg_infinity in
  for s = 0 to k - 1 do
    let delay = c *. (d.mus.(s) +. (d.s_inter.(s) *. i_std) +. res.(s)) in
    if delay > !worst then worst := delay
  done;
  !worst

let leakage_overhead ?(policy = default_policy) tech pipeline =
  check policy;
  let d = decompose pipeline in
  let s_vth = Spv_process.Tech.delay_sensitivity_vth tech in
  integrate_standard_normal (fun i_std ->
      let c = correction policy d ~i_std in
      let dvth = (c -. 1.0) /. s_vth in
      Spv_circuit.Power.leakage_factor tech ~dvth)
