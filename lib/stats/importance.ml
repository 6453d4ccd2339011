(* One shift per component: the minimal-norm z with component j at the
   barrier (the mode's "design point").  For x_j = mu_j + row_j(L).z,
   the smallest-|z| crossing is z* = row_j(L) (T - mu_j) / sigma_j^2 —
   under correlation it naturally drags the correlated components up
   too, which is exactly the dominant joint failure configuration the
   naive "others stay at their means" shift misses.  Crossing depth is
   capped at 6 sigma so a far barrier keeps a sane proposal. *)
let default_mixture mvn ~threshold =
  let d = Mvn.dim mvn in
  let shifts = ref [] in
  let weights = ref [] in
  for j = 0 to d - 1 do
    let g = Mvn.marginal mvn j in
    let mu = Gaussian.mu g and sigma = Gaussian.sigma g in
    if sigma > 0.0 then begin
      let depth = Float.max 0.0 (Float.min 6.0 ((threshold -. mu) /. sigma)) in
      if depth > 0.0 then begin
        let row = Mvn.cholesky_row mvn j in
        let scale = depth /. sigma in
        shifts := Array.map (fun l -> l *. scale) row :: !shifts;
        (* Marginal exceedance as the mode weight (floored so no mode
           is starved). *)
        let p = 1.0 -. Gaussian.cdf g threshold in
        weights := Float.max p 1e-12 :: !weights
      end
    end
  done;
  match !shifts with
  | [] ->
      (* Every component already sits at or above the barrier: plain
         sampling is fine; use a zero shift. *)
      ([| Array.make d 0.0 |], [| 1.0 |])
  | ss ->
      let shifts = Array.of_list ss in
      let ws = Array.of_list !weights in
      let total = Array.fold_left ( +. ) 0.0 ws in
      (shifts, Array.map (fun w -> w /. total) ws)

(* ---- single-trial sampler kernel ------------------------------------ *)

type plan = {
  p_mvn : Mvn.t;
  p_threshold : float;
  p_shifts : float array array;
  p_alphas : float array;
  p_cumulative : float array;
  p_half_sq : float array;  (** |theta_j|^2 / 2 per shift *)
}

(* Below this whitened-shift norm the proposal is statistically
   indistinguishable from plain sampling (the likelihood ratio stays
   within e^{0.5^2/2} ~ 13% of 1 on typical draws): the target sits in
   the body and mean-shifting buys nothing.  Callers should detect
   this via [max_shift_norm] and fall back to plain Monte-Carlo with
   an explicit marker instead of silently reporting importance-grade
   output (DESIGN §8's importance-at-body contract limit). *)
let body_shift_threshold = 0.5

let plan ?z_shifts ?z_alphas mvn ~threshold =
  let d = Mvn.dim mvn in
  let shifts, alphas =
    match z_shifts with
    | Some ss ->
        if Array.length ss = 0 then
          invalid_arg "Importance.plan: empty shift set";
        Array.iter
          (fun s ->
            if Array.length s <> d then
              invalid_arg "Importance.plan: shift dimension mismatch")
          ss;
        let k = Array.length ss in
        let alphas =
          match z_alphas with
          | None -> Array.make k (1.0 /. float_of_int k)
          | Some ws ->
              if Array.length ws <> k then
                invalid_arg "Importance.plan: alpha/shift length mismatch";
              let total =
                Array.fold_left
                  (fun acc w ->
                    if not (w > 0.0) || not (Float.is_finite w) then
                      invalid_arg
                        "Importance.plan: alphas must be finite positive";
                    acc +. w)
                  0.0 ws
              in
              Array.map (fun w -> w /. total) ws
        in
        (ss, alphas)
    | None ->
        if z_alphas <> None then
          invalid_arg "Importance.plan: z_alphas requires z_shifts";
        default_mixture mvn ~threshold
  in
  let cumulative =
    let acc = ref 0.0 in
    Array.map
      (fun a ->
        acc := !acc +. a;
        !acc)
      alphas
  in
  let half_sq theta =
    let sq = ref 0.0 in
    for i = 0 to Array.length theta - 1 do
      sq := !sq +. (theta.(i) *. theta.(i))
    done;
    !sq /. 2.0
  in
  {
    p_mvn = mvn;
    p_threshold = threshold;
    p_shifts = shifts;
    p_alphas = alphas;
    p_cumulative = cumulative;
    p_half_sq = Array.map half_sq shifts;
  }

let max_shift_norm p =
  Array.fold_left
    (fun acc shift ->
      let sq = Array.fold_left (fun s t -> s +. (t *. t)) 0.0 shift in
      Float.max acc (sqrt sq))
    0.0 p.p_shifts

(* w(z) = phi(z) / sum_j alpha_j phi(z - theta_j)
        = 1 / sum_j alpha_j exp(theta_j . z - |theta_j|^2 / 2). *)
let mixture_weight p z =
  let denom = ref 0.0 in
  for j = 0 to Array.length p.p_shifts - 1 do
    let theta = p.p_shifts.(j) in
    let dot = ref 0.0 in
    for i = 0 to Array.length theta - 1 do
      dot := !dot +. (theta.(i) *. Float.Array.unsafe_get z i)
    done;
    denom := !denom +. (p.p_alphas.(j) *. exp (!dot -. p.p_half_sq.(j)))
  done;
  if !denom <= 0.0 then 0.0 else 1.0 /. !denom

type sampler = { plan : plan; z : Float.Array.t; x : Float.Array.t }

let sampler p =
  let d = Mvn.dim p.p_mvn in
  { plan = p; z = Float.Array.make d 0.0; x = Float.Array.make d 0.0 }

let draw_weight s rng =
  let p = s.plan in
  let k = Array.length p.p_shifts in
  let u = Rng.float rng in
  let j = ref 0 in
  while !j < k - 1 && not (u < p.p_cumulative.(!j)) do
    incr j
  done;
  let d = Mvn.dim p.p_mvn in
  Rng.gaussians_into rng s.z ~pos:0 ~len:d;
  let shift = p.p_shifts.(!j) in
  for i = 0 to d - 1 do
    Float.Array.unsafe_set s.z i (shift.(i) +. Float.Array.unsafe_get s.z i)
  done;
  Mvn.transform_into p.p_mvn s.z s.x;
  let worst = ref neg_infinity in
  for i = 0 to d - 1 do
    worst := Float.max !worst (Float.Array.unsafe_get s.x i)
  done;
  if !worst > p.p_threshold then mixture_weight p s.z else 0.0
