module Gd = Spv_process.Gate_delay

type curve_point = { delay : float; area : float; decomposed : Gd.t }

type stage_model = { model_name : string; pts : curve_point array }

let stage_model ~name pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Balance.stage_model: need >= 2 points";
  for i = 1 to n - 1 do
    if pts.(i).delay <= pts.(i - 1).delay then
      invalid_arg "Balance.stage_model: delays not strictly increasing";
    if pts.(i).area >= pts.(i - 1).area then
      invalid_arg "Balance.stage_model: area not strictly decreasing"
  done;
  { model_name = name; pts = Array.copy pts }

let name m = m.model_name
let points m = Array.copy m.pts

let delay_bounds m =
  (m.pts.(0).delay, m.pts.(Array.length m.pts - 1).delay)

(* Locate the segment containing [delay] and its interpolation weight;
   clamps outside the sampled range. *)
let locate m delay =
  let n = Array.length m.pts in
  if delay <= m.pts.(0).delay then (0, 0.0)
  else if delay >= m.pts.(n - 1).delay then (n - 2, 1.0)
  else begin
    let rec bisect lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if m.pts.(mid).delay <= delay then bisect mid hi else bisect lo mid
    in
    let i = bisect 0 (n - 1) in
    let d0 = m.pts.(i).delay and d1 = m.pts.(i + 1).delay in
    (i, (delay -. d0) /. (d1 -. d0))
  end

let lerp a b w = a +. ((b -. a) *. w)

let area_at m ~delay =
  let i, w = locate m delay in
  lerp m.pts.(i).area m.pts.(i + 1).area w

let decomposed_at m ~delay =
  let i, w = locate m delay in
  let a = m.pts.(i).decomposed and b = m.pts.(i + 1).decomposed in
  Gd.make
    ~nominal:(lerp a.Gd.nominal b.Gd.nominal w)
    ~sigma_inter:(lerp a.Gd.sigma_inter b.Gd.sigma_inter w)
    ~sigma_sys:(lerp a.Gd.sigma_sys b.Gd.sigma_sys w)
    ~sigma_rand:(lerp a.Gd.sigma_rand b.Gd.sigma_rand w)

let delay_at_area m ~area =
  let n = Array.length m.pts in
  if area >= m.pts.(0).area then m.pts.(0).delay
  else if area <= m.pts.(n - 1).area then m.pts.(n - 1).delay
  else begin
    (* Areas are strictly decreasing with delay. *)
    let rec bisect lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if m.pts.(mid).area >= area then bisect mid hi else bisect lo mid
    in
    let i = bisect 0 (n - 1) in
    let a0 = m.pts.(i).area and a1 = m.pts.(i + 1).area in
    let w = (a0 -. area) /. (a0 -. a1) in
    lerp m.pts.(i).delay m.pts.(i + 1).delay w
  end

let ri m ~delay =
  let lo, hi = delay_bounds m in
  let h = (hi -. lo) /. 50.0 in
  let d0 = Float.max lo (delay -. h) and d1 = Float.min hi (delay +. h) in
  let a0 = area_at m ~delay:d0 and a1 = area_at m ~delay:d1 in
  let slope = (a1 -. a0) /. (d1 -. d0) in
  let a = area_at m ~delay in
  if a <= 0.0 then invalid_arg "Balance.ri: non-positive area";
  -.slope *. delay /. a

let pipeline_of ?corr_length ?(pitch = 1.0) models ~delays =
  let n = Array.length models in
  if Array.length delays <> n then
    invalid_arg "Balance.pipeline_of: delays length mismatch";
  let positions = Spv_process.Spatial.row_positions ~n ~pitch in
  let stages =
    Array.mapi
      (fun i m ->
        Stage.make ~name:m.model_name ~position:positions.(i)
          (decomposed_at m ~delay:delays.(i)))
      models
  in
  Pipeline.of_stages ?corr_length stages

let total_area models ~delays =
  if Array.length models <> Array.length delays then
    invalid_arg "Balance.total_area: length mismatch";
  let acc = ref 0.0 in
  Array.iteri (fun i m -> acc := !acc +. area_at m ~delay:delays.(i)) models;
  !acc

let balanced_delays models ~total_area:budget =
  if Array.length models = 0 then invalid_arg "Balance.balanced_delays: empty";
  let lo =
    Array.fold_left (fun acc m -> Float.max acc (fst (delay_bounds m))) neg_infinity models
  in
  let hi =
    Array.fold_left (fun acc m -> Float.min acc (snd (delay_bounds m))) infinity models
  in
  if lo >= hi then
    invalid_arg "Balance.balanced_delays: stage delay ranges do not overlap";
  let area_of d =
    Array.fold_left (fun acc m -> acc +. area_at m ~delay:d) 0.0 models
  in
  (* Area decreases with delay: the fastest common delay costs the most. *)
  if budget > area_of lo +. 1e-9 || budget < area_of hi -. 1e-9 then
    invalid_arg "Balance.balanced_delays: budget outside reachable range";
  let rec bisect lo hi iters =
    if iters = 0 then (lo +. hi) /. 2.0
    else
      let mid = (lo +. hi) /. 2.0 in
      if area_of mid > budget then bisect mid hi (iters - 1)
      else bisect lo mid (iters - 1)
  in
  let d = bisect lo hi 80 in
  Array.make (Array.length models) d

type solution = { delays : float array; area : float; yield : float }

let evaluate ?corr_length ?pitch models ~delays ~t_target =
  let pipeline = pipeline_of ?corr_length ?pitch models ~delays in
  {
    delays = Array.copy delays;
    area = total_area models ~delays;
    yield = Yield.clark_gaussian pipeline ~t_target;
  }

(* Constant-area pairwise exchange: moving [step] area units out of
   stage i (slowing it) and into stage j (speeding it).  [sense] = 1
   maximises yield, -1 minimises it.  The step starts at 5% of the
   per-stage budget and halves over 8 sweeps. *)
let exchange_search ?corr_length ?pitch ~sense models ~total_area:budget
    ~t_target =
  let n = Array.length models in
  let delays = balanced_delays models ~total_area:budget in
  let score ds =
    let s = (evaluate ?corr_length ?pitch models ~delays:ds ~t_target).yield in
    sense *. s
  in
  let best = ref (Array.copy delays) in
  let best_score = ref (score delays) in
  let step = ref (0.05 *. budget /. float_of_int n) in
  for _sweep = 1 to 8 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let trial = Array.copy !best in
          let area_i = area_at models.(i) ~delay:trial.(i) -. !step in
          let area_j = area_at models.(j) ~delay:trial.(j) +. !step in
          trial.(i) <- delay_at_area models.(i) ~area:area_i;
          trial.(j) <- delay_at_area models.(j) ~area:area_j;
          (* Clamping at curve ends can leak area; only accept
             area-neutral (or better) moves. *)
          if total_area models ~delays:trial <= budget +. 1e-9 then begin
            let s = score trial in
            if s > !best_score then begin
              best := trial;
              best_score := s
            end
          end
        end
      done
    done;
    step := !step /. 2.0
  done;
  evaluate ?corr_length ?pitch models ~delays:!best ~t_target

let optimise_constant_area ?corr_length ?pitch models ~total_area ~t_target =
  exchange_search ?corr_length ?pitch ~sense:1.0 models ~total_area ~t_target

let pessimise_constant_area ?corr_length ?pitch models ~total_area ~t_target =
  exchange_search ?corr_length ?pitch ~sense:(-1.0) models ~total_area
    ~t_target

let order_by_ri models ~delays =
  let n = Array.length models in
  if Array.length delays <> n then
    invalid_arg "Balance.order_by_ri: length mismatch";
  let idx = Array.init n (fun i -> i) in
  let r = Array.mapi (fun i m -> ri m ~delay:delays.(i)) models in
  Array.sort (fun i j -> compare r.(i) r.(j)) idx;
  idx
