module Gd = Spv_process.Gate_delay

type t = {
  name : string;
  delay : Gd.t;
  position : Spv_process.Spatial.position;
}

let origin = Spv_process.Spatial.position ~x:0.0 ~y:0.0

let make ?(name = "stage") ?(position = origin) delay =
  { name; delay; position }

let of_moments ?name ?position ~mu ~sigma () =
  if sigma < 0.0 then invalid_arg "Stage.of_moments: sigma < 0";
  make ?name ?position
    (Gd.make ~nominal:mu ~sigma_inter:0.0 ~sigma_sys:0.0 ~sigma_rand:sigma)

type timing_method = Path_based | Block_based

let of_circuit ?ff ?position ?(timing = Path_based) tech net =
  let total =
    match timing with
    | Path_based ->
        (Spv_circuit.Ssta.analyse_stage ?ff tech net)
          .Spv_circuit.Ssta.total
    | Block_based -> Spv_circuit.Block_ssta.stage_delay ?ff tech net
  in
  make ~name:(Spv_circuit.Netlist.name net) ?position total

let gaussian t = Gd.to_gaussian t.delay
let mu t = t.delay.Gd.nominal
let sigma t = Gd.total_sigma t.delay

let variability t = Gd.variability t.delay

let scale_delay t k = { t with delay = Gd.scale t.delay k }

let yield_alone t ~t_target = Spv_stats.Gaussian.cdf (gaussian t) t_target

let pp fmt t =
  Format.fprintf fmt "%s: %a @@(%g,%g)" t.name Gd.pp t.delay
    t.position.Spv_process.Spatial.x t.position.Spv_process.Spatial.y
