(* FMAX distribution and speed binning.

   An extension built on the paper's model: the pipeline delay
   distribution induces an FMAX distribution (the paper's reference
   [1], Bowman et al.), so dies can be binned by measured frequency and
   the bins priced.  For the Section 3.1 stage-count study (intra- vs
   inter-die variation against pipeline depth) run
   `spv_cli experiment fig5`.

   Run with:  dune exec examples/speed_binning.exe *)

module F = Spv_core.Fmax

let ghz f_per_ps = 1000.0 *. f_per_ps (* 1/ps -> GHz *)

let () =
  let tech = Spv_process.Tech.bptm70 in

  (* A 10-stage, depth-12 pipeline. *)
  let nets = Spv_circuit.Generators.inverter_chain_pipeline ~stages:10 ~depth:12 () in
  let ff = Spv_process.Flipflop.default tech in
  let pipeline = Spv_core.Pipeline.of_circuits ~ff tech nets in

  let mean_f, std_f = F.mean_std pipeline in
  Printf.printf "FMAX ~ %.3f GHz mean, %.3f GHz sigma\n" (ghz mean_f) (ghz std_f);
  List.iter
    (fun p ->
      Printf.printf "  P%2.0f frequency: %.3f GHz\n" (100.0 *. p)
        (ghz (F.quantile pipeline ~p)))
    [ 0.05; 0.5; 0.95 ];

  (* Three speed bins around the median. *)
  let f_med = F.quantile pipeline ~p:0.5 in
  let edges = [| 0.97 *. f_med; 1.03 *. f_med |] in
  let bins = F.bin_fractions pipeline ~edges in
  Printf.printf "\nSpeed bins:\n";
  Array.iter
    (fun b ->
      let hi =
        if b.F.f_hi = infinity then "inf"
        else Printf.sprintf "%.3f" (ghz b.F.f_hi)
      in
      Printf.printf "  [%.3f, %s) GHz : %5.1f%% of dies\n" (ghz b.F.f_lo) hi
        (100.0 *. b.F.fraction))
    bins;
  let prices = [| 120.0; 180.0; 240.0 |] in
  Printf.printf "Expected selling price: $%.2f\n"
    (F.expected_price pipeline ~edges ~prices);
