(* Quickstart: the paper's Fig. 1 five-stage pipeline (IF ID EX MEM WB).

   Deterministically the clock period is the slowest stage (6 ns); under
   variation every stage delay is a Gaussian and the pipeline delay is
   their max, so both the expected period and the yield at any target
   change.  This example builds that model in a few lines of the public
   API and prints the statistical picture next to the deterministic one.

   Run with:  dune exec examples/quickstart.exe *)

module G = Spv_stats.Gaussian

let () =
  (* Fig. 1's stage delays, in ps: IF=4000, ID=5000, EX=6000, MEM=5000,
     WB=3000, each with 5% sigma. *)
  let names = [| "IF"; "ID"; "EX"; "MEM"; "WB" |] in
  let nominal = [| 4000.0; 5000.0; 6000.0; 5000.0; 3000.0 |] in
  let stages =
    Array.init 5 (fun i ->
        Spv_core.Stage.of_moments ~name:names.(i) ~mu:nominal.(i)
          ~sigma:(0.05 *. nominal.(i))
          ())
  in
  (* Moderate inter-stage correlation, as inter-die variation induces. *)
  let corr = Spv_stats.Correlation.uniform ~n:5 ~rho:0.3 in
  let pipeline = Spv_core.Pipeline.make stages ~corr in

  Printf.printf "Deterministic view (Fig. 1a):\n";
  Printf.printf "  clock period = max stage delay = %.0f ps\n"
    (Spv_core.Pipeline.nominal_delay pipeline);
  Printf.printf "  throughput   = 1 job / %.0f ps\n\n"
    (Spv_core.Pipeline.nominal_delay pipeline);

  let tp = Spv_core.Pipeline.delay_distribution pipeline in
  Printf.printf "Statistical view (Fig. 1b):\n";
  Printf.printf "  pipeline delay ~ N(mu = %.0f ps, sigma = %.0f ps)\n"
    (G.mu tp) (G.sigma tp);
  Printf.printf "  (Jensen: mu_T >= max_i mu_i = %.0f ps)\n\n"
    (Spv_core.Pipeline.jensen_lower_bound pipeline);

  Printf.printf "Yield vs clock-period target:\n";
  List.iter
    (fun t_target ->
      let y = Spv_core.Yield.clark_gaussian pipeline ~t_target in
      Printf.printf "  T = %5.0f ps  ->  yield = %5.1f%%\n" t_target
        (100.0 *. y))
    [ 6000.0; 6200.0; 6400.0; 6600.0 ];

  let t80 = Spv_core.Yield.target_delay_for_yield pipeline ~yield:0.8 in
  Printf.printf "\nSmallest clock period with 80%% yield: %.0f ps\n" t80;

  (* Cross-check the analytic yield with Monte-Carlo. *)
  let ctx = Spv_engine.Engine.Ctx.of_pipeline pipeline in
  let mc =
    Spv_engine.Engine.yield ~method_:Spv_engine.Engine.Mc ~seed:1 ~n:100_000
      ctx ~t_target:t80
  in
  Printf.printf "Monte-Carlo check at that period: %.1f%% (100k samples)\n"
    (100.0 *. mc.Spv_engine.Engine.value)
