module Gd = Spv_process.Gate_delay
module Special = Spv_stats.Special

type t = {
  nominal : float;
  s_inter : float;
  s_sys : float;
  s_rand : float;
}

let zero = { nominal = 0.0; s_inter = 0.0; s_sys = 0.0; s_rand = 0.0 }
let deterministic nominal = { zero with nominal }

let of_gate_delay (d : Gd.t) =
  {
    nominal = d.Gd.nominal;
    s_inter = d.Gd.sigma_inter;
    s_sys = d.Gd.sigma_sys;
    s_rand = d.Gd.sigma_rand;
  }

let to_gate_delay t =
  if t.s_inter < 0.0 || t.s_sys < 0.0 then
    invalid_arg "Canonical.to_gate_delay: negative shared sensitivity";
  Gd.make ~nominal:t.nominal ~sigma_inter:t.s_inter ~sigma_sys:t.s_sys
    ~sigma_rand:t.s_rand

let mean t = t.nominal

let variance t =
  (t.s_inter *. t.s_inter) +. (t.s_sys *. t.s_sys) +. (t.s_rand *. t.s_rand)

let sigma t = sqrt (variance t)

let to_gaussian t = Spv_stats.Gaussian.make ~mu:t.nominal ~sigma:(sigma t)

let covariance a b = (a.s_inter *. b.s_inter) +. (a.s_sys *. b.s_sys)

let correlation a b =
  let sa = sigma a and sb = sigma b in
  if sa = 0.0 || sb = 0.0 then 0.0
  else Float.max (-1.0) (Float.min 1.0 (covariance a b /. (sa *. sb)))

let add a b =
  {
    nominal = a.nominal +. b.nominal;
    s_inter = a.s_inter +. b.s_inter;
    s_sys = a.s_sys +. b.s_sys;
    s_rand = sqrt ((a.s_rand *. a.s_rand) +. (b.s_rand *. b.s_rand));
  }

let tightness a b =
  let var_diff =
    variance a +. variance b -. (2.0 *. covariance a b)
  in
  if var_diff <= 1e-24 then if a.nominal >= b.nominal then 1.0 else 0.0
  else Special.big_phi ((a.nominal -. b.nominal) /. sqrt var_diff)

let max a b =
  let ga = to_gaussian a and gb = to_gaussian b in
  let rho = correlation a b in
  let sa = sigma a and sb = sigma b in
  let a2 = (sa *. sa) +. (sb *. sb) -. (2.0 *. rho *. sa *. sb) in
  if a2 < 1e-24 then if a.nominal >= b.nominal then a else b
  else begin
    let spread = sqrt a2 in
    let alpha = (a.nominal -. b.nominal) /. spread in
    let t_prob = Special.big_phi alpha in
    let t_prob' = Special.big_phi (-.alpha) in
    let pdf = Special.phi alpha in
    let mean_max =
      (a.nominal *. t_prob) +. (b.nominal *. t_prob') +. (spread *. pdf)
    in
    let second =
      ((Spv_stats.Gaussian.mu ga ** 2.0) +. (sa *. sa)) *. t_prob
      +. ((Spv_stats.Gaussian.mu gb ** 2.0) +. (sb *. sb)) *. t_prob'
      +. ((a.nominal +. b.nominal) *. spread *. pdf)
    in
    let var_max = Float.max 0.0 (second -. (mean_max *. mean_max)) in
    (* Tightness-weighted blend keeps the covariance with the global
       parameters first-order exact. *)
    let s_inter = (t_prob *. a.s_inter) +. (t_prob' *. b.s_inter) in
    let s_sys = (t_prob *. a.s_sys) +. (t_prob' *. b.s_sys) in
    let shared = (s_inter *. s_inter) +. (s_sys *. s_sys) in
    let s_rand = sqrt (Float.max 0.0 (var_max -. shared)) in
    { nominal = mean_max; s_inter; s_sys; s_rand }
  end

let pp fmt t =
  Format.fprintf fmt "%.3g (+inter %.3g, +sys %.3g, +rand %.3g)" t.nominal
    t.s_inter t.s_sys t.s_rand
