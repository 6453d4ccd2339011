module Special = Spv_stats.Special

type point = { mu : float; sigma : float }

let check_yield yield =
  if not (yield > 0.5 && yield < 1.0) then
    invalid_arg "Design_space: yield must lie in (0.5, 1)"

let mu_t_upper_bound ~t_target ~yield ~sigma_t =
  check_yield yield;
  if sigma_t < 0.0 then invalid_arg "Design_space.mu_t_upper_bound: sigma_t < 0";
  t_target -. (sigma_t *. Special.big_phi_inv yield)

let relaxed_sigma_bound ~t_target ~yield ~mu =
  check_yield yield;
  (t_target -. mu) /. Special.big_phi_inv yield

let equality_sigma_bound ~t_target ~yield ~n_stages ~mu =
  check_yield yield;
  if n_stages <= 0 then invalid_arg "Design_space.equality_sigma_bound: n <= 0";
  let per_stage = yield ** (1.0 /. float_of_int n_stages) in
  (t_target -. mu) /. Special.big_phi_inv per_stage

let realizable_sigma ~mu_ref ~sigma_ref ~mu =
  if mu_ref <= 0.0 || sigma_ref < 0.0 then
    invalid_arg "Design_space.realizable_sigma: bad reference";
  if mu < 0.0 then invalid_arg "Design_space.realizable_sigma: mu < 0";
  sigma_ref *. sqrt (mu /. mu_ref)

let inverter_reference ?(random_only = true) tech ~size =
  if size <= 0.0 then invalid_arg "Design_space.inverter_reference: size <= 0";
  let mu =
    tech.Spv_process.Tech.tau
    *. (Spv_circuit.Cell.parasitic Spv_circuit.Cell.Inv +. (4.0 /. size))
  in
  let d = Spv_process.Gate_delay.of_nominal tech ~nominal:mu ~size in
  let sigma =
    if random_only then d.Spv_process.Gate_delay.sigma_rand
    else Spv_process.Gate_delay.total_sigma d
  in
  { mu; sigma }

type curves = {
  mus : float array;
  relaxed : float array;
  equality : (int * float array) list;
  realizable_min : float array;
  realizable_max : float array;
  mu_min : float;
  sigma_min : float;
}

(* The eq. 13 reference inverters: minimum (1x) and maximum (16x)
   drive. *)
let size_references tech =
  (inverter_reference tech ~size:1.0, inverter_reference tech ~size:16.0)

let curves ?(tech = Spv_process.Tech.bptm70) ?(n_points = 100) ~t_target
    ~yield ~stage_counts () =
  check_yield yield;
  if t_target <= 0.0 then invalid_arg "Design_space.curves: t_target <= 0";
  if n_points < 2 then invalid_arg "Design_space.curves: n_points < 2";
  let mus =
    Array.init n_points (fun i ->
        t_target *. float_of_int (i + 1) /. float_of_int n_points)
  in
  let clamp0 v = Float.max 0.0 v in
  let relaxed =
    Array.map (fun mu -> clamp0 (relaxed_sigma_bound ~t_target ~yield ~mu)) mus
  in
  let equality =
    List.map
      (fun n ->
        ( n,
          Array.map
            (fun mu ->
              clamp0 (equality_sigma_bound ~t_target ~yield ~n_stages:n ~mu))
            mus ))
      stage_counts
  in
  let ref_min, ref_max = size_references tech in
  let realizable_min =
    Array.map
      (fun mu -> realizable_sigma ~mu_ref:ref_min.mu ~sigma_ref:ref_min.sigma ~mu)
      mus
  in
  let realizable_max =
    Array.map
      (fun mu -> realizable_sigma ~mu_ref:ref_max.mu ~sigma_ref:ref_max.sigma ~mu)
      mus
  in
  {
    mus;
    relaxed;
    equality;
    realizable_min;
    realizable_max;
    mu_min = ref_max.mu;
    sigma_min = ref_max.sigma;
  }

let admissible ~t_target ~yield ~n_stages point =
  point.sigma >= 0.0
  && point.mu <= t_target
  && point.sigma <= equality_sigma_bound ~t_target ~yield ~n_stages ~mu:point.mu

let realizable ?(tech = Spv_process.Tech.bptm70) point =
  let ref_min, ref_max = size_references tech in
  point.mu >= ref_max.mu
  && point.sigma
     <= realizable_sigma ~mu_ref:ref_min.mu ~sigma_ref:ref_min.sigma ~mu:point.mu
  && point.sigma
     >= realizable_sigma ~mu_ref:ref_max.mu ~sigma_ref:ref_max.sigma ~mu:point.mu
