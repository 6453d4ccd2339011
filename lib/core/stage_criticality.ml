module G = Spv_stats.Gaussian

let probabilities ?(n = 20000) pipeline rng =
  if n <= 0 then invalid_arg "Criticality.probabilities: n <= 0";
  let k = Pipeline.n_stages pipeline in
  let mvn = Pipeline.mvn pipeline in
  (* A zero-sigma stage takes its exact mean: the jitter [cholesky_psd]
     adds to a singular covariance would otherwise give it a tiny
     random spread and break its ties at random, not to the lowest
     index. *)
  let sigmas = Spv_stats.Mvn.sigmas mvn in
  let fixed = List.filter (fun i -> sigmas.(i) = 0.0) (List.init k Fun.id) in
  let counts = Array.make k 0 in
  for _ = 1 to n do
    let draw = Spv_stats.Mvn.sample mvn rng in
    List.iter (fun i -> draw.(i) <- Spv_stats.Mvn.mean mvn i) fixed;
    let best = ref 0 in
    for i = 1 to k - 1 do
      if draw.(i) > draw.(!best) then best := i
    done;
    counts.(!best) <- counts.(!best) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int n) counts

let probabilities_analytic_independent pipeline =
  let gs = Pipeline.stage_gaussians pipeline in
  let k = Array.length gs in
  let lo =
    Array.fold_left (fun acc g -> Float.min acc (G.mu g -. (10.0 *. G.sigma g))) infinity gs
  in
  let hi =
    Array.fold_left (fun acc g -> Float.max acc (G.mu g +. (10.0 *. G.sigma g))) neg_infinity gs
  in
  let prob i =
    if G.sigma gs.(i) = 0.0 then
      (* A deterministic stage is critical iff every other stage stays
         below its value.  A tie with another deterministic stage goes
         to the lowest index, as in [probabilities], so tied stages
         are not each critical. *)
      let x = G.mu gs.(i) in
      Array.to_list gs
      |> List.mapi (fun j g ->
             if j = i then 1.0
             else if j < i && G.sigma g = 0.0 then
               if G.mu g < x then 1.0 else 0.0
             else G.cdf g x)
      |> List.fold_left ( *. ) 1.0
    else begin
      let f t =
        let acc = ref (G.pdf gs.(i) t) in
        Array.iteri (fun j g -> if j <> i then acc := !acc *. G.cdf g t) gs;
        !acc
      in
      (* Composite Gauss-Legendre, fine enough for smooth integrands. *)
      let panels = 48 in
      let acc = ref 0.0 in
      let w = (hi -. lo) /. float_of_int panels in
      for p = 0 to panels - 1 do
        let a = lo +. (float_of_int p *. w) in
        acc := !acc +. Spv_stats.Quadrature.gauss_legendre_32 ~f ~lo:a ~hi:(a +. w)
      done;
      !acc
    end
  in
  Array.init k prob

let entropy probs =
  Array.fold_left
    (fun acc p ->
      if p < 0.0 then invalid_arg "Criticality.entropy: negative probability";
      if p = 0.0 then acc else acc -. (p *. log p))
    0.0 probs

let yield_gradient_mu pipeline ~t_target =
  let gs = Pipeline.stage_gaussians pipeline in
  Array.mapi
    (fun i gi ->
      if G.sigma gi = 0.0 then 0.0
      else begin
        let others = ref 1.0 in
        Array.iteri (fun j g -> if j <> i then others := !others *. G.cdf g t_target) gs;
        -.(G.pdf gi t_target) *. !others
      end)
    gs

let most_critical probs =
  if Array.length probs = 0 then invalid_arg "Criticality.most_critical: empty";
  let best = ref 0 in
  Array.iteri (fun i p -> if p > probs.(!best) then best := i) probs;
  !best
