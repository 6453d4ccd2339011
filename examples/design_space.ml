(* Exploring the per-stage (mu, sigma) design space (Section 2.5).

   Given a clock-period target and a yield target, which stage-delay
   distributions are even admissible?  And which of those can an
   inverter chain in this technology actually realise?  This example
   prints the Fig. 4 bounds and classifies a few candidate stages.

   Run with:  dune exec examples/design_space.exe *)

module Ds = Spv_core.Design_space

let () =
  let tech = Spv_process.Tech.bptm70 in
  let t_target = 120.0 in
  let yield = 0.85 in
  Printf.printf "Target: T = %.0f ps at %.0f%% yield\n\n" t_target
    (100.0 *. yield);

  (* Eq. 10: an upper bound for the overall pipeline mean given its
     sigma. *)
  List.iter
    (fun sigma_t ->
      Printf.printf
        "  if sigma_T = %4.1f ps then mu_T must be <= %6.1f ps (eq. 10)\n"
        sigma_t
        (Ds.mu_t_upper_bound ~t_target ~yield ~sigma_t))
    [ 2.0; 5.0; 10.0 ];

  (* Eq. 12: per-stage sigma budget shrinks with the stage count. *)
  Printf.printf "\nPer-stage sigma budget at mu = 100 ps (eq. 12):\n";
  List.iter
    (fun n ->
      Printf.printf "  %2d stages -> sigma_i <= %5.2f ps\n" n
        (Ds.equality_sigma_bound ~t_target ~yield ~n_stages:n ~mu:100.0))
    [ 2; 4; 8; 16 ];

  (* Eq. 13: what an inverter chain can realise. *)
  let p_min = Ds.inverter_reference tech ~size:1.0 in
  let p_max = Ds.inverter_reference tech ~size:16.0 in
  Printf.printf
    "\nInverter references: min-size (mu %.1f, sigma %.2f), max-size \
     (mu %.1f, sigma %.3f)\n"
    p_min.Ds.mu p_min.Ds.sigma p_max.Ds.mu p_max.Ds.sigma;

  Printf.printf "\nClassifying candidate stages (mu, sigma):\n";
  List.iter
    (fun (mu, sigma) ->
      let p = { Ds.mu; sigma } in
      let adm = Ds.admissible ~t_target ~yield ~n_stages:4 p in
      let real = Ds.realizable ~tech p in
      Printf.printf
        "  (%5.1f, %5.2f)  admissible(Ns=4): %-5b  realizable: %b\n" mu sigma
        adm real)
    [ (100.0, 2.0); (100.0, 25.0); (60.0, 1.0); (60.0, 0.2); (119.0, 0.5) ];

  Printf.printf
    "\nFull Fig. 4 curves: dune exec bin/spv_cli.exe -- experiment fig4\n"
