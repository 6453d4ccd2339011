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

let mixture_weight ~shifts ~alphas z =
  (* w(z) = phi(z) / sum_j alpha_j phi(z - theta_j)
          = 1 / sum_j alpha_j exp(theta_j . z - |theta_j|^2 / 2). *)
  let denom = ref 0.0 in
  Array.iteri
    (fun j theta ->
      let dot = ref 0.0 and sq = ref 0.0 in
      Array.iteri
        (fun i t ->
          dot := !dot +. (t *. z.(i));
          sq := !sq +. (t *. t))
        theta;
      denom := !denom +. (alphas.(j) *. exp (!dot -. (!sq /. 2.0))))
    shifts;
  if !denom <= 0.0 then 0.0 else 1.0 /. !denom

(* ---- single-trial sampler kernel ------------------------------------ *)

type plan = {
  p_mvn : Mvn.t;
  p_threshold : float;
  p_shifts : float array array;
  p_alphas : float array;
  p_cumulative : float array;
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
  {
    p_mvn = mvn;
    p_threshold = threshold;
    p_shifts = shifts;
    p_alphas = alphas;
    p_cumulative = cumulative;
  }

let max_shift_norm p =
  Array.fold_left
    (fun acc shift ->
      let sq = Array.fold_left (fun s t -> s +. (t *. t)) 0.0 shift in
      Float.max acc (sqrt sq))
    0.0 p.p_shifts

let n_modes p = Array.length p.p_shifts

let draw_weight p rng =
  let k = Array.length p.p_shifts in
  let pick_mode u =
    let rec go j =
      if j >= k - 1 || u < p.p_cumulative.(j) then j else go (j + 1)
    in
    go 0
  in
  let j = pick_mode (Rng.float rng) in
  let d = Mvn.dim p.p_mvn in
  let z = Array.init d (fun i -> p.p_shifts.(j).(i) +. Rng.gaussian rng) in
  let x = Mvn.transform p.p_mvn z in
  let worst = Array.fold_left Float.max neg_infinity x in
  if worst > p.p_threshold then
    mixture_weight ~shifts:p.p_shifts ~alphas:p.p_alphas z
  else 0.0
