module Net = Spv_circuit.Netlist
module Yield = Spv_core.Yield
module Balance = Spv_core.Balance
module Engine = Spv_engine.Engine

let log_src = Logs.Src.create "spv.global_opt" ~doc:"Fig. 9 global optimiser"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  nets : Net.t array;
  pipeline : Spv_core.Pipeline.t;
  stage_targets : float array;
  stage_areas : float array;
  stage_yields : float array;
  total_area : float;
  pipeline_yield : float;
  order : int array;
}


(* The eq. 8 product of stage yields: the arithmetic the paper's Tables
   II/III report. *)
let eval_yield ctx ~t_target =
  (Engine.yield ~method_:Engine.Exact_independent ctx ~t_target).Engine.value

let build_result ctx nets ~targets ~t_target ~order =
  let pipeline = Engine.Ctx.pipeline ctx in
  {
    nets;
    pipeline;
    stage_targets = Array.copy targets;
    stage_areas = Array.map Net.area nets;
    stage_yields = Yield.stage_yields pipeline ~t_target;
    total_area = Array.fold_left (fun acc n -> acc +. Net.area n) 0.0 nets;
    pipeline_yield = eval_yield ctx ~t_target;
    order = Array.copy order;
  }

let per_stage_z ~yield_target ~n =
  Spv_stats.Special.big_phi_inv
    (Yield.per_stage_yield_target ~yield:yield_target ~n_stages:n)

let individually_optimised_ctx ?options ?ff ?(pitch = 1.0) tech nets ~t_target
    ~yield_target =
  let n = Array.length nets in
  if n = 0 then invalid_arg "Global_opt: no stages";
  let nets = Array.map Net.copy nets in
  let z = per_stage_z ~yield_target ~n in
  Array.iter
    (fun net -> ignore (Lagrangian.size_stage ?options ?ff tech net ~t_target ~z))
    nets;
  let targets = Array.make n t_target in
  let order = Array.init n (fun i -> i) in
  let ctx = Engine.Ctx.of_circuits ~pitch ?ff tech nets in
  (build_result ctx nets ~targets ~t_target ~order, ctx)

let individually_optimised ?options ?ff ?pitch tech nets ~t_target ~yield_target =
  fst
    (individually_optimised_ctx ?options ?ff ?pitch tech nets ~t_target
       ~yield_target)

(* Slope order (eq. 14) from per-stage area-delay curves evaluated at
   each stage's current nominal delay. *)
let ri_order ?ff tech nets profiles ~z ~ascending =
  let n = Array.length nets in
  let ri =
    Array.mapi
      (fun s net ->
        let model = profiles.(s).Area_delay.model in
        let current = Lagrangian.statistical_delay ?ff tech net ~z in
        let lo, hi = Balance.delay_bounds model in
        let at = Float.max lo (Float.min hi current) in
        Balance.ri model ~delay:at)
      nets
  in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j -> if ascending then compare ri.(i) ri.(j) else compare ri.(j) ri.(i))
    order;
  order

(* Both loops stop after this many improving passes. *)
let max_rounds = 25

(* The baseline both loops start from, and what they read of each
   stage's area-delay trade-off: its fastest delay and its 7-point
   curve.  Neither depends on the sizes the loops reach (see
   {!Area_delay.profile}), so one call computes them once per stage. *)
let baseline ?options ?ff ?pitch tech nets ~t_target ~yield_target =
  let base, ctx =
    individually_optimised_ctx ?options ?ff ?pitch tech nets ~t_target
      ~yield_target
  in
  let z = per_stage_z ~yield_target ~n:(Array.length base.nets) in
  let profiles =
    Array.map (fun net -> Area_delay.profile ?options ?ff ~n_points:7 tech net ~z) base.nets
  in
  (base, ctx, z, profiles)

let ensure_loop ?options ?ff tech ~t_target ~yield_target (base, ctx0, z, profiles) =
  let nets = base.nets in
  let targets = Array.copy base.stage_targets in
  let order = ri_order ?ff tech nets profiles ~z ~ascending:true in
  (* The context is refreshed one stage at a time as the optimiser
     mutates gate sizes: each yield probe re-analyses only the touched
     stage instead of rebuilding the whole pipeline. *)
  let ctx = ref ctx0 in
  let refresh s = ctx := Engine.Ctx.refresh_stage !ctx s in
  let pipeline_yield () = eval_yield !ctx ~t_target in
  let sizing_opts = Option.value options ~default:Lagrangian.default_options in
  (* A rejected probe restores the snapshot and refreshes, leaving the
     context equivalent to never having probed — so a certified proof
     that the probe's yield cannot clear [current +. 1e-9] lets us
     skip the whole snapshot / re-size / refresh round trip without
     changing the result.  The 5e-10 margin keeps the certified test
     strictly inside the concrete acceptance threshold. *)
  let probe_certified_rejected ~current s =
    match Sens_hook.yield_skip () with
    | None -> false
    | Some skip ->
        skip
          {
            Sens_hook.ye_ctx = !ctx;
            ye_stage = s;
            ye_t_target = t_target;
            ye_current = current;
            ye_min_size = sizing_opts.Lagrangian.min_size;
            ye_max_size = sizing_opts.Lagrangian.max_size;
          }
  in
  let rec rounds remaining =
    if remaining = 0 then ()
    else begin
      let current = pipeline_yield () in
      if current >= yield_target then ()
      else begin
        (* One pass over stages, cheapest delay first; accept the first
           move that improves the pipeline yield. *)
        let improved = ref false in
        Array.iter
          (fun s ->
            if not !improved then begin
              let candidate = targets.(s) *. (1.0 -. 0.03) in
              if candidate > profiles.(s).Area_delay.d_fast then begin
                if probe_certified_rejected ~current s then
                  Sens_hook.stats.Sens_hook.probes_skipped <-
                    Sens_hook.stats.Sens_hook.probes_skipped + 1
                else begin
                  Sens_hook.stats.Sens_hook.probes_run <-
                    Sens_hook.stats.Sens_hook.probes_run + 1;
                  let snapshot = Net.sizes_snapshot nets.(s) in
                  ignore
                    (Lagrangian.size_stage ?options ?ff tech nets.(s)
                       ~t_target:candidate ~z);
                  refresh s;
                  let trial = pipeline_yield () in
                  if trial > current +. 1e-9 then begin
                    Log.debug (fun m ->
                        m "tighten stage %d to %.1f ps: yield %.4f -> %.4f" s
                          candidate current trial);
                    targets.(s) <- candidate;
                    improved := true
                  end
                  else begin
                    Net.restore_sizes nets.(s) snapshot;
                    refresh s
                  end
                end
              end
            end)
          order;
        if !improved then rounds (remaining - 1)
      end
    end
  in
  rounds max_rounds;
  (build_result !ctx nets ~targets ~t_target ~order, !ctx)

let ensure_yield ?options ?ff ?pitch tech nets ~t_target ~yield_target =
  fst
    (ensure_loop ?options ?ff tech ~t_target ~yield_target
       (baseline ?options ?ff ?pitch tech nets ~t_target ~yield_target))

let minimise_area ?options ?ff ?pitch tech nets ~t_target ~yield_target =
  let ((_, _, z, profiles) as start) =
    baseline ?options ?ff ?pitch tech nets ~t_target ~yield_target
  in
  let ensured, ctx0 = ensure_loop ?options ?ff tech ~t_target ~yield_target start in
  let n = Array.length ensured.nets in
  let nets = ensured.nets in
  let targets = Array.copy ensured.stage_targets in
  let order = ri_order ?ff tech nets profiles ~z ~ascending:false in
  let tighten_step = 0.015 in
  let ctx = ref ctx0 in
  let refresh s = ctx := Engine.Ctx.refresh_stage !ctx s in
  let current_yield () = eval_yield !ctx ~t_target in
  let total_area () =
    Array.fold_left (fun acc net -> acc +. Net.area net) 0.0 nets
  in
  (* A move relaxes one stage (big area saving, yield drop) and, if the
     yield target breaks, buys the yield back by tightening the other
     stages (small area cost each), cheapest-delay first, cycling until
     the target is met or every stage is maxed out — the Fig. 8 area
     exchange in reverse. *)
  let try_move s_relax ~with_recovery =
    let snapshots = Array.map Net.sizes_snapshot nets in
    let saved_targets = Array.copy targets in
    let area_before = total_area () in
    let touched = ref [] in
    let resize s target =
      ignore
        (Lagrangian.size_stage ?options ?ff tech nets.(s) ~t_target:target ~z);
      refresh s;
      if not (List.mem s !touched) then touched := s :: !touched
    in
    let relaxed = targets.(s_relax) *. (1.0 +. 0.015) in
    resize s_relax relaxed;
    targets.(s_relax) <- relaxed;
    let tighten_candidates =
      Array.of_list
        (List.filter (fun s -> s <> s_relax)
           (List.rev (Array.to_list order)))
    in
    let rec recover steps cursor =
      if current_yield () >= yield_target then true
      else if (not with_recovery) || steps = 0 then false
      else begin
        (* Find the next stage (cyclically) that can still tighten. *)
        let m = Array.length tighten_candidates in
        let rec next attempts k =
          if attempts = 0 then None
          else
            let st = tighten_candidates.(k mod m) in
            let candidate = targets.(st) *. (1.0 -. tighten_step) in
            if candidate > profiles.(st).Area_delay.d_fast then Some (st, candidate, k)
            else next (attempts - 1) (k + 1)
        in
        match next m cursor with
        | None -> false
        | Some (st, candidate, k) ->
            resize st candidate;
            targets.(st) <- candidate;
            recover (steps - 1) (k + 1)
      end
    in
    let ok = recover 12 0 in
    if ok && total_area () < area_before -. 1e-6 then begin
      Log.debug (fun m ->
          m "relax stage %d to %.1f ps: area %.1f -> %.1f" s_relax
            targets.(s_relax) area_before (total_area ()));
      true
    end
    else begin
      Array.iteri (fun i net -> Net.restore_sizes net snapshots.(i)) nets;
      Array.blit saved_targets 0 targets 0 n;
      List.iter refresh !touched;
      false
    end
  in
  let rec rounds remaining =
    if remaining = 0 then ()
    else begin
      let improved = ref false in
      (* Pure relaxations first (free wins when slack exists), then
         relax+recover exchanges. *)
      Array.iter
        (fun s -> if try_move s ~with_recovery:false then improved := true)
        order;
      Array.iter
        (fun s -> if try_move s ~with_recovery:true then improved := true)
        order;
      if !improved then rounds (remaining - 1)
    end
  in
  rounds max_rounds;
  build_result !ctx nets ~targets ~t_target ~order
