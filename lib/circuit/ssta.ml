module Gd = Spv_process.Gate_delay
module Variation = Spv_process.Variation

type stage_analysis = {
  comb : Gd.t;
  total : Gd.t;
  nominal : Sta.result;
}

let analyse_stage ?(output_load = 4.0) ?ff tech net =
  let nominal = Sta.run ~output_load tech net in
  let comb =
    List.fold_left
      (fun acc i ->
        let d = nominal.Sta.gate_delays.(i) in
        Gd.add acc (Gd.of_nominal tech ~nominal:d ~size:(Netlist.size net i)))
      Gd.zero nominal.Sta.critical_path
  in
  let total =
    match ff with
    | None -> comb
    | Some ff -> Gd.add comb (Spv_process.Flipflop.overhead ff)
  in
  { comb; total; nominal }

let stage_gaussian ?output_load ?ff tech net =
  Gd.to_gaussian (analyse_stage ?output_load ?ff tech net).total

(* Per-trial machinery shared by the stage and pipeline samplers: one
   delay factor per node from (inter + systematic at the stage's
   location + fresh per-gate random). *)
let fill_factors ?(exact = false) ?active tech net ~inter ~sys_field rng
    factors =
  let f_of shift =
    if exact then Variation.delay_factor_exact tech shift
    else Variation.delay_factor_linear tech shift
  in
  Array.iter
    (fun i ->
      (* The per-gate random component is drawn even for masked gates so
         the RNG stream stays aligned with the unmasked run: pruning may
         only skip arithmetic, never change what any surviving gate
         samples. *)
      let rand = Variation.sample_rand tech ~size:(Netlist.size net i) rng in
      match active with
      | Some m when not m.(i) -> ()
      | _ ->
          let sys = Variation.sample_sys_scaled tech ~field:sys_field in
          let shift = Variation.(add_shift inter (add_shift sys rand)) in
          factors.(i) <- f_of shift)
    (Netlist.gate_ids net)

let ff_overhead_sample ?(exact = false) tech ff ~inter ~sys_field rng =
  match ff with
  | None -> 0.0
  | Some ff ->
      let nominal = Spv_process.Flipflop.nominal_overhead ff in
      let rand = Variation.sample_rand tech ~size:2.0 rng in
      let sys = Variation.sample_sys_scaled tech ~field:sys_field in
      let shift = Variation.(add_shift inter (add_shift sys rand)) in
      let f =
        if exact then Variation.delay_factor_exact tech shift
        else Variation.delay_factor_linear tech shift
      in
      nominal *. f

(* ---- single-trial sampler kernel ------------------------------------ *)

type sampler = {
  s_tech : Spv_process.Tech.t;
  s_nets : Netlist.t array;
  s_output_load : float;
  s_exact : bool;
  s_ff : Spv_process.Flipflop.t option;
  s_spatial : Spv_process.Sample.t;
  s_factors : float array array;
  s_delays : float array;
  s_active : bool array array option;
}

let sampler ?(output_load = 4.0) ?(exact = false) ?(pitch = 1.0) ?ff ?active
    tech nets =
  let n_stages = Array.length nets in
  if n_stages = 0 then invalid_arg "Ssta.sampler: no stages";
  (match active with
  | None -> ()
  | Some masks ->
      if Array.length masks <> n_stages then
        invalid_arg "Ssta.sampler: one active mask per stage required";
      Array.iteri
        (fun st m ->
          if Array.length m <> Netlist.n_nodes nets.(st) then
            invalid_arg "Ssta.sampler: active mask length mismatch")
        masks);
  let positions = Spv_process.Spatial.row_positions ~n:n_stages ~pitch in
  {
    s_tech = tech;
    s_nets = nets;
    s_output_load = output_load;
    s_exact = exact;
    s_ff = ff;
    s_spatial = Spv_process.Sample.create tech ~positions;
    s_factors = Array.map (fun net -> Array.make (Netlist.n_nodes net) 1.0) nets;
    s_delays = Array.make n_stages 0.0;
    s_active = active;
  }

let sampler_stages s = Array.length s.s_nets

let draw_stage_delays_into s rng out =
  let world = Spv_process.Sample.draw s.s_spatial rng in
  let inter = world.Spv_process.Sample.inter in
  for st = 0 to Array.length s.s_nets - 1 do
    let sys_field = world.Spv_process.Sample.sys_field.(st) in
    let active =
      match s.s_active with None -> None | Some masks -> Some masks.(st)
    in
    fill_factors ~exact:s.s_exact ?active s.s_tech s.s_nets.(st) ~inter
      ~sys_field rng s.s_factors.(st);
    let sta =
      Sta.run_with_factors ~output_load:s.s_output_load ?active s.s_tech
        s.s_nets.(st) ~factors:s.s_factors.(st)
    in
    out.(st) <-
      sta.Sta.delay
      +. ff_overhead_sample ~exact:s.s_exact s.s_tech s.s_ff ~inter ~sys_field
           rng
  done

let draw_stage_delays s rng =
  let out = Array.make (Array.length s.s_nets) 0.0 in
  draw_stage_delays_into s rng out;
  out

let draw_pipeline_delay s rng =
  draw_stage_delays_into s rng s.s_delays;
  Array.fold_left Float.max neg_infinity s.s_delays
