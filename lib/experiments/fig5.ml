module V = Spv_core.Variability
module Tech = Spv_process.Tech

let panel_a ?depths () =
  let depths =
    match depths with
    | Some d -> d
    | None -> Array.init 8 (fun i -> 5 * (i + 1))
  in
  let settings =
    [
      ("random-only", Common.random_only_tech);
      ("intra+inter20mV", Common.mixed_tech ~inter_mv:20.0 ());
      ("intra+inter40mV", Common.mixed_tech ~inter_mv:40.0 ());
      ("inter40mV-only", Common.inter_only_tech ~sigma_mv:40.0 ());
    ]
  in
  let x = Array.map float_of_int depths in
  let series =
    List.map
      (fun (label, tech) ->
        let raw = V.stage_sigma_mu_vs_depth tech ~depths in
        (label, V.normalise raw))
      settings
  in
  (x, series)

(* Normalised pipeline sigma/mu for 4..40 stages under uniform stage
   correlations 0.0, 0.2, 0.5. *)
let panel_b () =
  let stage_counts = Array.init 10 (fun i -> 4 * (i + 1)) in
  let stage = Spv_stats.Gaussian.make ~mu:100.0 ~sigma:6.0 in
  let x = Array.map float_of_int stage_counts in
  let series =
    List.map
      (fun rho ->
        (* One memoised Clark prefix recursion over the largest count
           instead of one fold per count; bit-identical to
           V.pipeline_sigma_mu_vs_stages. *)
        let raw = Spv_workload.Sweep.stage_count_sweep ~stage ~rho ~stage_counts in
        (Printf.sprintf "rho=%.1f" rho, V.normalise raw))
      [ 0.0; 0.2; 0.5 ]
  in
  (x, series)

let panel_c ?(total_levels = 120) ?stage_counts () =
  let stage_counts =
    match stage_counts with
    | Some c -> c
    | None ->
        Array.of_list
          (List.filter (fun d -> d >= 2 && d <= 30) (V.divisors total_levels))
  in
  let x = Array.map float_of_int stage_counts in
  let series =
    List.map
      (fun inter_mv ->
        let tech =
          if inter_mv = 0.0 then Common.random_only_tech
          else
            Tech.with_inter_vth Common.random_only_tech ~sigma_mv:inter_mv
        in
        let raw = V.fixed_total_levels tech ~total_levels ~stage_counts in
        (Printf.sprintf "interVth=%.0fmV" inter_mv, raw))
      [ 0.0; 20.0; 40.0 ]
  in
  (x, series)

let print_panel header (x, series) =
  Common.multi_series ~header
    ~labels:(Array.of_list (List.map fst series))
    ~x
    (Array.of_list (List.map snd series))

let run () =
  Common.section "Figure 5: variability (sigma/mu) trends";
  Common.subsection "(a) stage variability vs logic depth (normalised)";
  print_panel "depth vs normalised sigma/mu" (panel_a ());
  Common.subsection "(b) pipeline variability vs number of stages (normalised)";
  print_panel "stages vs normalised sigma/mu" (panel_b ());
  Common.subsection
    "(c) pipeline variability, stages x depth = 120 (raw sigma/mu)";
  print_panel "stages vs sigma/mu" (panel_c ())
