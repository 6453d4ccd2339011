module G = Spv_stats.Gaussian
module Clark = Spv_core.Clark

type point = { x : float; mean_err_pct : float; std_err_pct : float }

let pct_err approx reference =
  if reference = 0.0 then invalid_arg "Fig3: zero reference";
  abs_float (approx -. reference) /. reference *. 100.0

let error_vs_stages ?(mu = 100.0) ?(sigma = 10.0) ?stage_counts () =
  let stage_counts =
    match stage_counts with
    | Some cs -> cs
    | None -> Array.init 29 (fun i -> i + 2)
  in
  Array.map
    (fun n ->
      let gs = Array.make n (G.make ~mu ~sigma) in
      let approx = Clark.max_n_independent gs in
      let ref_mu, ref_std = Clark.exact_max_moments_independent gs in
      {
        x = float_of_int n;
        mean_err_pct = pct_err (G.mu approx) ref_mu;
        std_err_pct = pct_err (G.sigma approx) ref_std;
      })
    stage_counts

(* Eight equal N(100, 10) stages under uniform correlation rho in
   0..0.8, against a 400k-sample Monte-Carlo reference. *)
let error_vs_correlation () =
  let mu = 100.0 and sigma = 10.0 and n_stages = 8 in
  Array.map
    (fun rho ->
      let gs = Array.make n_stages (G.make ~mu ~sigma) in
      let corr = Spv_stats.Correlation.uniform ~n:n_stages ~rho in
      let approx = Clark.max_n gs ~corr in
      let mvn =
        Spv_stats.Mvn.create
          ~mus:(Array.make n_stages mu)
          ~sigmas:(Array.make n_stages sigma)
          ~corr
      in
      let rng = Common.rng () in
      let sampler = Spv_stats.Mvn.sampler mvn in
      let samples =
        Array.init 400_000 (fun _ -> Spv_stats.Mvn.sample_max sampler rng)
      in
      let ref_mu = Spv_stats.Descriptive.mean samples in
      let ref_std = Spv_stats.Descriptive.std samples in
      {
        x = rho;
        mean_err_pct = pct_err (G.mu approx) ref_mu;
        std_err_pct = pct_err (G.sigma approx) ref_std;
      })
    (Array.init 9 (fun i -> 0.1 *. float_of_int i))

let ordering_ablation ?(mu_spread = 20.0) ?(sigma = 8.0) ?(n_stages = 8) () =
  let gs =
    Array.init n_stages (fun i ->
        G.make
          ~mu:(100.0 +. (mu_spread *. float_of_int i /. float_of_int n_stages))
          ~sigma)
  in
  (* Shuffle deterministically so As_given is neither sorted order. *)
  let shuffled = Array.copy gs in
  Spv_stats.Rng.shuffle (Common.rng ()) shuffled;
  let ref_mu, ref_std = Clark.exact_max_moments_independent shuffled in
  List.map
    (fun order ->
      let approx = Clark.max_n_independent ~order shuffled in
      ( order,
        pct_err (G.mu approx) ref_mu,
        pct_err (G.sigma approx) ref_std ))
    [ Clark.Increasing_mean; Clark.Decreasing_mean; Clark.As_given ]

let order_name = function
  | Clark.Increasing_mean -> "increasing-mean"
  | Clark.Decreasing_mean -> "decreasing-mean"
  | Clark.As_given -> "as-given"

let print_points header pts =
  Common.multi_series ~header
    ~labels:[| "mean-err-%"; "std-err-%" |]
    ~x:(Array.map (fun p -> p.x) pts)
    [| Array.map (fun p -> p.mean_err_pct) pts;
       Array.map (fun p -> p.std_err_pct) pts |]

let run () =
  Common.section "Figure 3: Clark-model error trends";
  Common.subsection "(a) error vs number of stages (independent, equal stages)";
  print_points "stages vs % error" (error_vs_stages ());
  Common.subsection "(b) error vs correlation coefficient (8 stages, MC ref)";
  print_points "rho vs % error" (error_vs_correlation ());
  Common.subsection "ablation: variable folding order (distinct means)";
  List.iter
    (fun (order, mean_err, std_err) ->
      Printf.printf "  %-16s  mean err %.4f%%   std err %.4f%%\n"
        (order_name order) mean_err std_err)
    (ordering_ablation ())
