open Helpers
module F = Spv_core.Fmax
module Stage = Spv_core.Stage
module P = Spv_core.Pipeline

let pipeline () =
  P.make
    (Array.init 5 (fun i ->
         Stage.of_moments ~mu:(195.0 +. float_of_int i) ~sigma:5.0 ()))
    ~corr:(Spv_stats.Correlation.uniform ~n:5 ~rho:0.3)

let test_mean_std_delta_method () =
  let p = pipeline () in
  let mean, std = F.mean_std p in
  let fs =
    Spv_engine.Engine.(sample_delays ~seed:160 (Ctx.of_pipeline p) ~n:100_000)
    |> Array.map (fun t -> 1.0 /. t)
  in
  check_in_range "mean vs MC"
    ~lo:(0.999 *. Spv_stats.Descriptive.mean fs)
    ~hi:(1.001 *. Spv_stats.Descriptive.mean fs)
    mean;
  check_in_range "std vs MC"
    ~lo:(0.96 *. Spv_stats.Descriptive.std fs)
    ~hi:(1.04 *. Spv_stats.Descriptive.std fs)
    std

let test_quantile_duality () =
  let p = pipeline () in
  (* Pr{f <= q_p} must equal p. *)
  List.iter
    (fun prob ->
      let q = F.quantile p ~p:prob in
      check_close ~rel:1e-9 "cdf of quantile" prob (F.cdf p q))
    [ 0.1; 0.5; 0.9 ];
  check_raises_invalid "bad p" (fun () -> ignore (F.quantile p ~p:0.0))

let test_cdf_monotone () =
  let p = pipeline () in
  let f1 = F.cdf p 0.004 and f2 = F.cdf p 0.005 and f3 = F.cdf p 0.006 in
  Alcotest.(check bool) "monotone" true (f1 <= f2 && f2 <= f3)

let test_bins_partition () =
  let p = pipeline () in
  let q25 = F.quantile p ~p:0.25 and q75 = F.quantile p ~p:0.75 in
  let bins = F.bin_fractions p ~edges:[| q25; q75 |] in
  Alcotest.(check int) "three bins" 3 (Array.length bins);
  check_close ~rel:1e-9 "fractions sum to 1" 1.0
    (Array.fold_left (fun acc b -> acc +. b.F.fraction) 0.0 bins);
  check_close ~rel:1e-6 "slow bin" 0.25 bins.(0).F.fraction;
  check_close ~rel:1e-6 "middle bin" 0.5 bins.(1).F.fraction;
  check_close ~rel:1e-6 "fast bin" 0.25 bins.(2).F.fraction;
  check_raises_invalid "decreasing edges" (fun () ->
      ignore (F.bin_fractions p ~edges:[| q75; q25 |]))

let test_expected_price () =
  let p = pipeline () in
  let q50 = F.quantile p ~p:0.5 in
  let price = F.expected_price p ~edges:[| q50 |] ~prices:[| 0.0; 100.0 |] in
  check_close ~rel:1e-6 "half the dies sell" 50.0 price;
  check_raises_invalid "price count" (fun () ->
      ignore (F.expected_price p ~edges:[| q50 |] ~prices:[| 1.0 |]))

let test_tighter_sigma_raises_revenue () =
  (* The binning argument: when the nominal design comfortably clears a
     bin edge, sigma only pushes dies below it, so reducing sigma at
     the same mean raises expected revenue.  (If the mean sat *below*
     the edge, variance would have option value — the test pins the
     regime the argument applies to.) *)
  let build sigma =
    P.make
      (Array.init 4 (fun _ -> Stage.of_moments ~mu:200.0 ~sigma ()))
      ~corr:(Spv_stats.Correlation.perfectly_correlated ~n:4)
  in
  let loose = build 12.0 and tight = build 4.0 in
  (* Bin edge at the 210 ps clock: 2.5 sigma of slack for the tight
     design, only 0.83 sigma for the loose one. *)
  let edge = 1.0 /. 210.0 in
  let prices = [| 0.0; 100.0 |] in
  Alcotest.(check bool) "tight sigma earns more" true
    (F.expected_price tight ~edges:[| edge |] ~prices
    > F.expected_price loose ~edges:[| edge |] ~prices)

let suite =
  [
    slow "delta method vs MC" test_mean_std_delta_method;
    quick "quantile/cdf duality" test_quantile_duality;
    quick "cdf monotone" test_cdf_monotone;
    quick "bins partition" test_bins_partition;
    quick "expected price" test_expected_price;
    quick "tight sigma earns more" test_tighter_sigma_raises_revenue;
  ]
