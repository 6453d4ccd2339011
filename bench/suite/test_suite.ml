(* Unit tests of the harness: percentile and spread rules, seed
   determinism of the generators, span self time, compare verdicts. *)

open Bench_suite

let close = Alcotest.float 1e-12

(* ---- stats ----------------------------------------------------------- *)

let test_quantiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  Alcotest.(check (list close)) "python exclusive quartiles" [ 2.75; 5.5; 8.25 ]
    (Stats.quantiles xs);
  Alcotest.check close "iqr" 5.5 (Stats.iqr xs);
  (* statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25] *)
  Alcotest.(check (list close)) "two samples" [ 0.75; 1.5; 2.25 ]
    (Stats.quantiles [| 2.0; 1.0 |]);
  Alcotest.check close "even median" 5.5 (Stats.median xs);
  Alcotest.check close "odd median" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |])

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "nearest-rank p50" 50.0 (Stats.percentile xs 0.5);
  Alcotest.check close "nearest-rank p90" 90.0 (Stats.percentile xs 0.9);
  Alcotest.(check int) "ten beyond p90 at n=100" 10 (Stats.beyond ~n:100 0.9);
  Alcotest.(check int) "nine beyond p90 at n=99" 9 (Stats.beyond ~n:99 0.9);
  Alcotest.(check bool) "p90 supported at n=100" true
    (Result.is_ok (Stats.percentile_checked xs 0.9));
  Alcotest.(check bool) "p90 refused at n=99" true
    (Result.is_error (Stats.percentile_checked (Array.sub xs 0 99) 0.9));
  Alcotest.(check bool) "p99 refused at n=100" true
    (Result.is_error (Stats.percentile_checked xs 0.99))

(* ---- generators -------------------------------------------------------- *)

let test_zipf () =
  let cdf = Gen.zipf_cdf ~k:80 ~s:1.0 in
  Alcotest.check (Alcotest.float 1e-9) "cdf ends at 1" 1.0 cdf.(79);
  let a = Gen.serve_stream ~seed:3 ~length:20_000 in
  Alcotest.(check bool) "same seed, same stream" true (a = Gen.serve_stream ~seed:3 ~length:20_000);
  Alcotest.(check bool) "other seed, other stream" false (a = Gen.serve_stream ~seed:4 ~length:20_000);
  let count r = Array.fold_left (fun acc x -> if x = r then acc + 1 else acc) 0 a in
  (* rank r has probability 1 / ((r + 1) H_80), H_80 ~ 4.965 *)
  let expect r = 20_000.0 /. (float_of_int (r + 1) *. 4.965) in
  List.iter
    (fun r ->
      let c = float_of_int (count r) in
      if Float.abs (c -. expect r) > 5.0 *. sqrt (expect r) then
        Alcotest.failf "rank %d drawn %.0f times, expected about %.0f" r c (expect r))
    [ 0; 1; 4; 19; 79 ]

let test_schedule () =
  let weights = [| 3; 1; 2 |] in
  let s = Gen.schedule (Gen.state ~seed:5 ~salt:0) ~weights ~blocks:7 in
  Alcotest.(check int) "length" 42 (Array.length s);
  for b = 0 to 6 do
    let block = Array.sub s (b * 6) 6 in
    Array.iteri
      (fun k w ->
        Alcotest.(check int)
          (Printf.sprintf "block %d holds stratum %d %d times" b k w)
          w
          (Array.fold_left (fun acc x -> if x = k then acc + 1 else acc) 0 block))
      weights
  done

let test_determinism () =
  let same name f =
    Alcotest.(check bool) (name ^ ": same seed, same inputs") true (f 7 = f 7);
    Alcotest.(check bool) (name ^ ": other seed, other inputs") false (f 7 = f 8)
  in
  same "sweep grids" (fun seed ->
      Array.map
        (fun m -> Gen.sweep_grid m ~targets:[| 100.0; 110.0 |])
        (Gen.sweep_specs ~seed ~blocks:2));
  same "gate calls" (fun seed -> (Gen.gate_chain_pool ~seed, Gen.gate_calls ~seed ~blocks:3));
  same "serve templates" (fun seed -> Gen.serve_template_specs ~seed);
  same "designs" (fun seed -> Gen.design_specs ~seed ~blocks:2);
  same "fuzz cases" (fun seed -> Workloads.fuzz_cases ~seed);
  let cases = Workloads.fuzz_cases ~seed:1 in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "finding %d left out" s) false (Array.mem s cases))
    Workloads.fuzz_findings

(* ---- spans ------------------------------------------------------------- *)

(* A clock that reads the given times in order. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        t
    | [] -> Alcotest.fail "clock read too often"

let test_self_time () =
  (* root [0, 100] > a [10, 40] > leaf [20, 30]; root > b [50, 70] *)
  let tr =
    Spans.create ~clock:(scripted [ 0; 10; 20; 30; 40; 50; 70; 100 ]) ~workload:"w" ()
  in
  Spans.set_enabled tr true;
  Spans.set_call tr 3;
  Spans.with_span tr "root" (fun () ->
      Spans.with_span tr "a" (fun () -> Spans.with_span tr "leaf" ignore);
      Spans.with_span tr "b" ignore);
  let spans = Spans.spans tr in
  let self name = Spans.self_ns spans name in
  Alcotest.(check (list int)) "self times" [ 50; 20; 10; 20 ]
    (List.map self [ "root"; "a"; "leaf"; "b" ]);
  Alcotest.(check int) "self times partition the root" 100
    (List.fold_left (fun acc (_, s) -> acc + s) 0 (Spans.self_times spans));
  Alcotest.(check bool) "spans of one call share its id" true
    (List.for_all (fun s -> s.Spans.call_id = 3) spans);
  (* [10, 40] once, plus [90, 120] clipped to [90, 100] *)
  Alcotest.(check int) "overlapping children counted once, clipped" 40
    (Spans.covered ~lo:0 ~hi:100 [ (10, 30); (20, 40); (90, 120) ]);
  let off = Spans.create ~clock:(scripted []) ~workload:"w" () in
  Alcotest.(check int) "disabled recorder runs the body" 4
    (Spans.with_span off "x" (fun () -> 4));
  Alcotest.(check int) "and records nothing" 0 (List.length (Spans.spans off))

(* ---- compare ----------------------------------------------------------- *)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v))
    ( = )

let test_compare () =
  let base = Array.init 10 (fun i -> 100.0 +. float_of_int (i mod 3)) in
  let judge ?(lower = true) ?(bound = 0.1) new_ =
    (Compare.judge ~lower_is_better:lower ~bound ~base ~new_).Compare.verdict
  in
  Alcotest.check verdict "clear win" Compare.Better (judge (Array.map (fun x -> x -. 20.0) base));
  Alcotest.check verdict "win on 8 of 10 pairs is not a claim" Compare.Same
    (judge (Array.mapi (fun i x -> if i < 8 then x -. 20.0 else x +. 1.0) base));
  Alcotest.check verdict "too few pairs to claim" Compare.Same
    (Compare.judge ~lower_is_better:true ~bound:0.1 ~base:(Array.sub base 0 5)
       ~new_:(Array.make 5 50.0))
      .Compare.verdict;
  Alcotest.check verdict "worse beyond the bound" Compare.Worse
    (judge (Array.map (fun x -> x *. 1.2) base));
  Alcotest.check verdict "worse within the bound" Compare.Same
    (judge (Array.map (fun x -> x *. 1.05) base));
  Alcotest.check verdict "higher-is-better worsens downwards" Compare.Worse
    (judge ~lower:false (Array.map (fun x -> x *. 0.8) base));
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 100.0 else 140.0) in
  Alcotest.check verdict "spread wider than the bound" Compare.Unresolved
    (Compare.judge ~lower_is_better:true ~bound:0.1 ~base:noisy
       ~new_:(Array.map (fun x -> x *. 1.05) noisy))
      .Compare.verdict;
  Alcotest.check verdict "separated runs resolve a wide spread" Compare.Worse
    (Compare.judge ~lower_is_better:true ~bound:0.1 ~base:noisy ~new_:(Array.make 10 300.0))
      .Compare.verdict

let tests =
  [
    ( "stats",
      [
        Alcotest.test_case "quantiles and IQR" `Quick test_quantiles;
        Alcotest.test_case "percentile tail rule" `Quick test_percentiles;
      ] );
    ( "generators",
      [
        Alcotest.test_case "zipf" `Quick test_zipf;
        Alcotest.test_case "stratified schedule" `Quick test_schedule;
        Alcotest.test_case "seed determinism" `Quick test_determinism;
      ] );
    ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
    ("compare", [ Alcotest.test_case "verdicts" `Quick test_compare ]);
  ]

let () = Alcotest.run "bench-suite" tests
