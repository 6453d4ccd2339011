module Netlist = Spv_circuit.Netlist
module Pipeline = Spv_core.Pipeline
module Clark = Spv_core.Clark
module G = Spv_stats.Gaussian
module Correlation = Spv_stats.Correlation
module Special = Spv_stats.Special

type stem = {
  stem : int;
  branches : int;
  reconvergence_count : int;
  max_paths : float;
}

(* Number of distinct paths from stem [s] to every node: node ids are
   topological, so one forward scan from [s] accumulates them.  Counts
   are floats and saturate instead of overflowing. *)
let path_counts net s =
  let n = Netlist.n_nodes net in
  let paths = Array.make n 0.0 in
  paths.(s) <- 1.0;
  for i = s + 1 to n - 1 do
    match Netlist.node net i with
    | Netlist.Primary_input _ -> ()
    | Netlist.Gate { fanin; _ } ->
        paths.(i) <- Array.fold_left (fun acc f -> acc +. paths.(f)) 0.0 fanin
  done;
  paths

let stem_of net s =
  let reconv = ref 0 and max_paths = ref 1.0 in
  Array.iter
    (fun c ->
      if c >= 2.0 then begin
        incr reconv;
        if c > !max_paths then max_paths := c
      end)
    (path_counts net s);
  {
    stem = s;
    branches = Netlist.n_fanouts net s;
    reconvergence_count = !reconv;
    max_paths = !max_paths;
  }

let stems net =
  let n = Netlist.n_nodes net in
  let acc = ref [] in
  for s = n - 1 downto 0 do
    if Netlist.n_fanouts net s >= 2 then begin
      let st = stem_of net s in
      if st.reconvergence_count > 0 then acc := st :: !acc
    end
  done;
  !acc

(* Union of all reconvergence nodes across stems (gates reached by >= 2
   paths from at least one stem). *)
let reconvergent_region net sts =
  let mark = Array.make (Netlist.n_nodes net) false in
  List.iter
    (fun st ->
      Array.iteri
        (fun i c -> if c >= 2.0 then mark.(i) <- true)
        (path_counts net st.stem))
    sts;
  Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 mark

let tie_scores pipeline =
  let gs = Pipeline.stage_gaussians pipeline in
  let corr = Pipeline.correlation pipeline in
  let n = Array.length gs in
  if n <= 1 then Array.make n 0.0
  else
    Array.init n (fun i ->
        (* Slowest other stage: the pairing that decides whether stage
           [i] can contend for the max. *)
        let l = ref (if i = 0 then 1 else 0) in
        for j = 0 to n - 1 do
          if j <> i && G.mu gs.(j) > G.mu gs.(!l) then l := j
        done;
        let l = !l in
        let si = G.sigma gs.(i) and sl = G.sigma gs.(l) in
        let rho = Correlation.get corr i l in
        let a2 = (si *. si) +. (sl *. sl) -. (2.0 *. rho *. si *. sl) in
        let a = sqrt (Float.max 0.0 a2) in
        let dmu = Float.abs (G.mu gs.(i) -. G.mu gs.(l)) in
        if a <= 0.0 then if dmu = 0.0 then 1.0 else 0.0
        else 2.0 *. Special.big_phi (-.dmu /. a))

type order_spread = { mu_spread : float; sigma_spread : float }

let order_sensitivity pipeline =
  let dists =
    List.map
      (fun order -> Pipeline.delay_distribution ~order pipeline)
      [ Clark.Increasing_mean; Clark.Decreasing_mean; Clark.As_given ]
  in
  let spread f =
    let vs = List.map f dists in
    List.fold_left Float.max neg_infinity vs
    -. List.fold_left Float.min infinity vs
  in
  { mu_spread = spread G.mu; sigma_spread = spread G.sigma }

(* ---- findings -------------------------------------------------------- *)

let pass_reconv = "reconvergence"
let pass_corr = "correlation"

let netlist_findings ?stage net =
  let location =
    match stage with None -> Report.Pipeline | Some s -> Report.Stage s
  in
  let node_location node =
    match stage with
    | None -> Report.Pipeline
    | Some s -> Report.Node { stage = s; node }
  in
  let sts = stems net in
  let region = reconvergent_region net sts in
  let n_gates = Netlist.n_gates net in
  let frac = if n_gates = 0 then 0.0 else float_of_int region /. float_of_int n_gates in
  let summary =
    Report.finding ~location ~pass:pass_reconv
      ~data:
        [
          ("stems", Report.Int (List.length sts));
          ("reconvergent_gates", Report.Int region);
          ("gates", Report.Int n_gates);
          ("fraction", Report.Num frac);
        ]
      "reconvergent-fanout summary"
  in
  let worst =
    let by_size =
      List.stable_sort
        (fun a b -> compare b.reconvergence_count a.reconvergence_count)
        sts
    in
    List.filteri (fun i _ -> i < 5) by_size
    |> List.map (fun st ->
           Report.finding ~location:(node_location st.stem) ~pass:pass_reconv
             ~data:
               [
                 ("branches", Report.Int st.branches);
                 ("reconvergences", Report.Int st.reconvergence_count);
                 ("max_paths", Report.Num st.max_paths);
               ]
             "reconvergent stem")
  in
  let warn =
    if frac > 0.25 then
      [
        Report.finding ~severity:Report.Warn ~location ~pass:pass_reconv
          ~data:[ ("fraction", Report.Num frac) ]
          "over a quarter of the gates sit on reconvergent paths: the \
           path-based stage model ignores the correlation between \
           near-critical paths here, so treat analytic stage sigmas with \
           care (prefer MC cross-checks)";
      ]
    else []
  in
  (summary :: worst) @ warn

let pipeline_findings pipeline =
  let gs = Pipeline.stage_gaussians pipeline in
  let n = Array.length gs in
  let scores = tie_scores pipeline in
  let worst_tie = Array.fold_left Float.max 0.0 scores in
  let tie_warns =
    scores
    |> Array.to_list
    |> List.mapi (fun i s -> (i, s))
    |> List.filter (fun (_, s) -> n > 1 && s >= 0.5)
    |> List.map (fun (i, s) ->
           Report.finding ~severity:Report.Warn ~location:(Report.Stage i)
             ~pass:pass_corr
             ~data:[ ("tie_score", Report.Num s) ]
             "stage mean nearly tied with the slowest contender: the max \
              of tied Gaussians is maximally skewed, so the Clark \
              Gaussian approximation is least trustworthy here")
  in
  let spread = order_sensitivity pipeline in
  let sigma_t = G.sigma (Pipeline.delay_distribution pipeline) in
  let rel s = if sigma_t > 0.0 then s /. sigma_t else 0.0 in
  let order_finding =
    let data =
      [
        ("mu_spread", Report.Num spread.mu_spread);
        ("sigma_spread", Report.Num spread.sigma_spread);
        ("sigma_total", Report.Num sigma_t);
      ]
    in
    if rel spread.mu_spread > 0.05 || rel spread.sigma_spread > 0.05 then
      Report.finding ~severity:Report.Warn ~pass:pass_corr ~data
        "Clark fold-order changes the result by more than 5% of sigma: \
         the iterated pairwise reduction is ambiguous on this pipeline"
    else Report.finding ~pass:pass_corr ~data "Clark fold-order spread"
  in
  let corr = Pipeline.correlation pipeline in
  let max_rho = ref 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      max_rho := Float.max !max_rho (Float.abs (Correlation.get corr i j))
    done
  done;
  let structure_finding =
    Report.finding ~pass:pass_corr
      ~data:
        [
          ("stages", Report.Int n);
          ("max_abs_rho", Report.Num !max_rho);
          ("worst_tie_score", Report.Num worst_tie);
          ( "nearly_independent",
            Report.Flag (Spv_core.Yield.nearly_independent pipeline) );
        ]
      "stage correlation structure"
  in
  (structure_finding :: order_finding :: tie_warns) @ []
