module Gd = Spv_process.Gate_delay

type corr_source = Explicit | Derived of float  (* corr_length *)

type t = {
  stages : Stage.t array;
  corr : Spv_stats.Correlation.t;
  source : corr_source;
}

let check_stages stages =
  if Array.length stages = 0 then invalid_arg "Pipeline: no stages"

let make stages ~corr =
  check_stages stages;
  let n = Array.length stages in
  if Spv_stats.Matrix.rows corr <> n || Spv_stats.Matrix.cols corr <> n then
    invalid_arg "Pipeline.make: correlation dimension mismatch";
  { stages = Array.copy stages; corr; source = Explicit }

let derive_corr ~corr_length stages =
  let n = Array.length stages in
  Spv_stats.Correlation.of_function ~n (fun i j ->
      let si = stages.(i) and sj = stages.(j) in
      let sys_rho =
        exp
          (-.Spv_process.Spatial.distance si.Stage.position sj.Stage.position
           /. corr_length)
      in
      Gd.correlation si.Stage.delay sj.Stage.delay ~sys_rho)

let of_stages ?(corr_length = Spv_process.Tech.bptm70.Spv_process.Tech.corr_length)
    stages =
  check_stages stages;
  {
    stages = Array.copy stages;
    corr = derive_corr ~corr_length stages;
    source = Derived corr_length;
  }

let of_circuits ?(pitch = 1.0) ?ff tech nets =
  check_stages nets;
  let positions =
    Spv_process.Spatial.row_positions ~n:(Array.length nets) ~pitch
  in
  let stages =
    Array.mapi
      (fun i net ->
        Stage.of_circuit ?ff ~position:positions.(i) tech net)
      nets
  in
  of_stages ~corr_length:tech.Spv_process.Tech.corr_length stages

let n_stages t = Array.length t.stages
let stage t i = t.stages.(i)
let stages t = Array.copy t.stages
let correlation t = t.corr
let stage_gaussians t = Array.map Stage.gaussian t.stages

let delay_distribution ?order t =
  Clark.max_n ?order (stage_gaussians t) ~corr:t.corr

let jensen_lower_bound t =
  Array.fold_left (fun acc s -> Float.max acc (Stage.mu s)) neg_infinity t.stages

let nominal_delay = jensen_lower_bound

let slowest_stage t =
  let best = ref 0 in
  Array.iteri
    (fun i s -> if Stage.mu s > Stage.mu t.stages.(!best) then best := i)
    t.stages;
  !best

let mvn t =
  Spv_stats.Mvn.create
    ~mus:(Array.map Stage.mu t.stages)
    ~sigmas:(Array.map Stage.sigma t.stages)
    ~corr:t.corr

let with_stage t i s =
  if i < 0 || i >= n_stages t then invalid_arg "Pipeline.with_stage: bad index";
  let stages = Array.copy t.stages in
  stages.(i) <- s;
  match t.source with
  | Explicit -> { t with stages }
  | Derived corr_length ->
      { stages; corr = derive_corr ~corr_length stages; source = t.source }

let map_stages t f =
  let stages = Array.map f t.stages in
  match t.source with
  | Explicit -> { t with stages }
  | Derived corr_length ->
      { stages; corr = derive_corr ~corr_length stages; source = t.source }

let pp fmt t =
  Format.fprintf fmt "pipeline[%d stages]:@." (n_stages t);
  Array.iter (fun s -> Format.fprintf fmt "  %a@." Stage.pp s) t.stages
