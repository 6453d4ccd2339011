module G = Spv_stats.Gaussian

let mean_std pipeline =
  let tp = Pipeline.delay_distribution pipeline in
  let mu = G.mu tp and sigma = G.sigma tp in
  if mu <= 0.0 then invalid_arg "Fmax.mean_std: non-positive mean delay";
  let r = sigma /. mu in
  ((1.0 /. mu) *. (1.0 +. (r *. r)), sigma /. (mu *. mu))

let quantile pipeline ~p =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Fmax.quantile: p outside (0,1)";
  let tp = Pipeline.delay_distribution pipeline in
  let t = G.quantile tp ~p:(1.0 -. p) in
  if t <= 0.0 then invalid_arg "Fmax.quantile: delay quantile non-positive";
  1.0 /. t

let cdf pipeline f =
  if f <= 0.0 then invalid_arg "Fmax.cdf: non-positive frequency";
  let tp = Pipeline.delay_distribution pipeline in
  G.sf tp (1.0 /. f)

type bin = { f_lo : float; f_hi : float; fraction : float }

let bin_fractions pipeline ~edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg "Fmax.bin_fractions: no edges";
  Array.iteri
    (fun i e ->
      if e <= 0.0 then invalid_arg "Fmax.bin_fractions: non-positive edge";
      if i > 0 && e <= edges.(i - 1) then
        invalid_arg "Fmax.bin_fractions: edges not increasing")
    edges;
  let cdf_at f = cdf pipeline f in
  Array.init (n + 1) (fun i ->
      let f_lo = if i = 0 then 0.0 else edges.(i - 1) in
      let f_hi = if i = n then infinity else edges.(i) in
      let c_lo = if i = 0 then 0.0 else cdf_at f_lo in
      let c_hi = if i = n then 1.0 else cdf_at f_hi in
      { f_lo; f_hi; fraction = Float.max 0.0 (c_hi -. c_lo) })

let expected_price pipeline ~edges ~prices =
  let bins = bin_fractions pipeline ~edges in
  if Array.length prices <> Array.length bins then
    invalid_arg "Fmax.expected_price: need one price per bin";
  Array.iteri
    (fun i p ->
      if p < 0.0 then invalid_arg "Fmax.expected_price: negative price";
      ignore i)
    prices;
  let acc = ref 0.0 in
  Array.iteri (fun i b -> acc := !acc +. (b.fraction *. prices.(i))) bins;
  !acc
