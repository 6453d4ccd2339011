(* Bechamel micro-benchmarks of the analysis kernels that no workload of
   the repository benchmark (bench/suite, BENCHMARK.json) times:

     dune exec bench/main.exe

   Takes no arguments.  The paper's tables and figures are reproduced by
   `spv_cli experiment ID`; end-to-end and per-layer performance is
   measured by bench/suite. *)

let perf_tests () =
  let open Bechamel in
  let tech = Spv_process.Tech.bptm70 in
  let ff = Spv_process.Flipflop.default tech in
  let stages12 =
    Array.init 12 (fun i ->
        Spv_stats.Gaussian.make ~mu:(100.0 +. float_of_int i) ~sigma:5.0)
  in
  let corr12 = Spv_stats.Correlation.uniform ~n:12 ~rho:0.3 in
  let stage_objs =
    Array.init 12 (fun i ->
        Spv_core.Stage.of_moments ~mu:(100.0 +. float_of_int i) ~sigma:5.0
          ~name:(string_of_int i) ())
  in
  let pipeline = Spv_core.Pipeline.make stage_objs ~corr:corr12 in
  let chain = Spv_circuit.Generators.inverter_chain ~depth:10 () in
  [
    Test.make ~name:"clark_max12_corr"
      (Staged.stage (fun () ->
           ignore (Spv_core.Clark.max_n stages12 ~corr:corr12)));
    Test.make ~name:"yield_clark_gaussian"
      (Staged.stage (fun () ->
           ignore (Spv_core.Yield.clark_gaussian pipeline ~t_target:115.0)));
    Test.make ~name:"yield_independent_exact"
      (Staged.stage (fun () ->
           ignore (Spv_core.Yield.independent_exact pipeline ~t_target:115.0)));
    Test.make ~name:"ssta_stage_chain10"
      (Staged.stage (fun () ->
           ignore (Spv_circuit.Ssta.analyse_stage ~ff tech chain)));
    Test.make ~name:"big_phi_inv"
      (Staged.stage (fun () -> ignore (Spv_stats.Special.big_phi_inv 0.8)));
  ]

let () =
  let open Bechamel in
  print_endline "Micro-benchmarks (Bechamel): core analysis kernels";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let tests = Test.make_grouped ~name:"spv" (perf_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%12.1f ns/run" t
        | Some [] | None -> "     (no est.)"
      in
      Printf.printf "  %-28s %s\n" name ns)
    (List.sort compare rows)
