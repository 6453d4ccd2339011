module G = Spv_stats.Gaussian

type model = { sigma_ps : float; corr_length : float }

let check model =
  if model.sigma_ps < 0.0 then invalid_arg "Skew: negative sigma";
  if model.corr_length <= 0.0 then invalid_arg "Skew: non-positive corr length"

(* Endpoint correlation at a boundary distance of [k] stage pitches. *)
let rho model ~pitch k =
  exp (-.(float_of_int (abs k) *. pitch) /. model.corr_length)

(* ds_i = s_(i+1) - s_i;
   Cov(ds_i, ds_j) = sigma^2 (2 rho(|i-j|) - rho(|i-j+1|) - rho(|i-j-1|)). *)
let delta_covariance model ~pitch i j =
  check model;
  if pitch < 0.0 then invalid_arg "Skew.delta_covariance: negative pitch";
  let d = i - j in
  let s2 = model.sigma_ps *. model.sigma_ps in
  s2
  *. ((2.0 *. rho model ~pitch d)
     -. rho model ~pitch (d + 1)
     -. rho model ~pitch (d - 1))

let apply ?(pitch = 1.0) pipeline model =
  check model;
  let n = Pipeline.n_stages pipeline in
  let gs = Pipeline.stage_gaussians pipeline in
  let corr = Pipeline.correlation pipeline in
  let sigmas' =
    Array.mapi
      (fun i g ->
        sqrt (G.variance g +. delta_covariance model ~pitch i i))
      gs
  in
  let stages' =
    Array.mapi
      (fun i g ->
        let original = Pipeline.stage pipeline i in
        Stage.of_moments ~name:original.Stage.name
          ~position:original.Stage.position ~mu:(G.mu g) ~sigma:sigmas'.(i) ())
      gs
  in
  let corr' =
    Spv_stats.Correlation.of_function ~n (fun i j ->
        let cov_stage =
          Spv_stats.Correlation.get corr i j *. G.sigma gs.(i) *. G.sigma gs.(j)
        in
        let cov = cov_stage +. delta_covariance model ~pitch i j in
        let denom = sigmas'.(i) *. sigmas'.(j) in
        if denom = 0.0 then 0.0
        else Float.max (-1.0) (Float.min 1.0 (cov /. denom)))
  in
  Pipeline.make stages' ~corr:corr'

let yield_penalty ?pitch pipeline model ~t_target =
  let before = Yield.clark_gaussian pipeline ~t_target in
  let after = Yield.clark_gaussian (apply ?pitch pipeline model) ~t_target in
  before -. after
