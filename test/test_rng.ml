open Helpers
module Rng = Spv_stats.Rng
module D = Spv_stats.Descriptive

let test_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d equal" i)
      (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_float_range () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let u = Rng.float rng in
    if u < 0.0 || u >= 1.0 then Alcotest.failf "float outside [0,1): %g" u
  done

let test_float_moments () =
  let rng = Rng.create ~seed:2 in
  let xs = Array.init 100_000 (fun _ -> Rng.float rng) in
  check_in_range "mean" ~lo:0.495 ~hi:0.505 (D.mean xs);
  check_in_range "variance" ~lo:0.081 ~hi:0.086 (D.variance xs)

let test_uniform () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let u = Rng.uniform rng ~lo:(-5.0) ~hi:3.0 in
    check_in_range "uniform in range" ~lo:(-5.0) ~hi:3.0 u
  done

let test_int_bounds () =
  let rng = Rng.create ~seed:4 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let v = Rng.int rng ~bound:7 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c -> check_in_range (Printf.sprintf "bucket %d" i) ~lo:9500. ~hi:10500. (float_of_int c))
    counts

let test_int_chi_square () =
  (* Pearson chi-square over a non-power-of-two range: the rejection
     mask makes every residue exactly equally likely, so the statistic
     must sit in the bulk of chi2(df = 11).  Threshold 35 is the
     ~2e-4 tail — a masked-without-rejection draw over bound 12 biases
     buckets 0..3 by 33% and blows far past it. *)
  let rng = Rng.create ~seed:31 in
  let bound = 12 in
  let draws = 120_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to draws do
    let v = Rng.int rng ~bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  check_in_range "chi-square df=11" ~lo:0.0 ~hi:35.0 chi2

let test_int_bound_one () =
  let rng = Rng.create ~seed:37 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 draws 0" 0 (Rng.int rng ~bound:1)
  done

let test_int_huge_bound () =
  (* Regression: the pre-fix mask loop (mask := mask lsl 1 until >=
     bound) never terminated for bounds above 2^61 because the shift
     wraps through min_int to 0.  The bottom-up all-ones mask stops at
     max_int. *)
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 100 do
    let v = Rng.int rng ~bound:max_int in
    Alcotest.(check bool) "huge bound in range" true (v >= 0 && v < max_int)
  done

let test_gaussian_moments () =
  let rng = Rng.create ~seed:5 in
  let xs = Array.init 200_000 (fun _ -> Rng.gaussian rng) in
  check_in_range "mean" ~lo:(-0.01) ~hi:0.01 (D.mean xs);
  check_in_range "std" ~lo:0.99 ~hi:1.01 (D.std xs);
  check_in_range "skew" ~lo:(-0.03) ~hi:0.03 (D.skewness xs);
  check_in_range "kurtosis" ~lo:(-0.05) ~hi:0.05 (D.kurtosis_excess xs)

let test_gaussian_normality () =
  let rng = Rng.create ~seed:6 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  let g = Spv_stats.Gaussian.make ~mu:0.0 ~sigma:1.0 in
  let r = Spv_stats.Kstest.against_gaussian xs g in
  check_in_range "KS p-value" ~lo:0.01 ~hi:1.0 r.Spv_stats.Kstest.p_value

let test_gaussian_mu_sigma () =
  let rng = Rng.create ~seed:7 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian_mu_sigma rng ~mu:10.0 ~sigma:3.0) in
  check_in_range "mean" ~lo:9.95 ~hi:10.05 (D.mean xs);
  check_in_range "std" ~lo:2.95 ~hi:3.05 (D.std xs)

let test_split_independence () =
  let parent = Rng.create ~seed:11 in
  let child = (Rng.split parent 1).(0) in
  let xs = Array.init 5000 (fun _ -> Rng.float parent) in
  let ys = Array.init 5000 (fun _ -> Rng.float child) in
  let rho = Spv_stats.Correlation.sample_correlation xs ys in
  check_in_range "split streams uncorrelated" ~lo:(-0.05) ~hi:0.05 rho

let test_split_cross_stream_correlation () =
  (* Every pair of sibling streams must be (statistically) uncorrelated:
     this is what makes shard-parallel Monte-Carlo sound. *)
  let parent = Rng.create ~seed:17 in
  let streams = Rng.split parent 6 in
  let draws =
    Array.map (fun s -> Array.init 4000 (fun _ -> Rng.float s)) streams
  in
  for i = 0 to Array.length draws - 1 do
    for j = i + 1 to Array.length draws - 1 do
      let rho = Spv_stats.Correlation.sample_correlation draws.(i) draws.(j) in
      check_in_range
        (Printf.sprintf "streams %d/%d uncorrelated" i j)
        ~lo:(-0.06) ~hi:0.06 rho
    done
  done

let test_split_determinism () =
  let mk () = Rng.split (Rng.create ~seed:23) 4 in
  let a = mk () and b = mk () in
  Array.iteri
    (fun i sa ->
      for d = 0 to 31 do
        Alcotest.(check int64)
          (Printf.sprintf "stream %d draw %d equal" i d)
          (Rng.bits64 sa) (Rng.bits64 b.(i))
      done)
    a

let test_split_golden () =
  (* Pins the four-independent-draw child derivation (each child state
     word from its own parent draw through splitmix64).  These values
     changed when the old single Int64.to_int 63-bit funnel was
     replaced — any future change to the derivation must update this
     fixture deliberately. *)
  let streams = Rng.split (Rng.create ~seed:23) 4 in
  let expected =
    [| 0x9D597A6DADD0E87CL; 0x3A199AB9E3EB0560L;
       0x7E18F563A69A9510L; 0xC32634F127CBD3B5L |]
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check int64)
        (Printf.sprintf "stream %d first draw" i)
        expected.(i) (Rng.bits64 s))
    streams

let test_split_rejects_nonpositive () =
  let parent = Rng.create ~seed:29 in
  Alcotest.check_raises "split 0 rejected"
    (Invalid_argument "Rng.split: n <= 0") (fun () ->
      ignore (Rng.split parent 0))

let test_copy () =
  let a = Rng.create ~seed:12 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:13 in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" a sorted;
  Alcotest.(check bool) "actually shuffled" true (b <> a)

(* The raw streams, pinned at the state-as-int64-fields generator:
   999 draws cycling bits64, float, three gaussians (so the spare
   is carried across the other draw kinds) and a bounded int, then a
   copy taken with a spare pending, then split children.  Any change
   to the state layout must leave every bit of this in place. *)
let stream_fixture () =
  let b = Buffer.create 65536 in
  let mixed rng n =
    for i = 0 to n - 1 do
      match i mod 6 with
      | 0 -> Printf.bprintf b "%Lx;" (Rng.bits64 rng)
      | 1 -> Printf.bprintf b "%h;" (Rng.float rng)
      | 5 -> Printf.bprintf b "%d;" (Rng.int rng ~bound:(1 + (i * 7919)))
      | _ -> Printf.bprintf b "%h;" (Rng.gaussian rng)
    done;
    Buffer.add_char b '\n'
  in
  let rng = Rng.create ~seed:20260 in
  mixed rng 999;
  (* 999 draws hold 499 gaussians: the copy starts with a spare. *)
  let twin = Rng.copy rng in
  mixed twin 50;
  mixed rng 50;
  Array.iter (fun child -> mixed child 100) (Rng.split rng 3);
  mixed rng 20;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_stream_fixture () =
  Alcotest.(check string) "raw stream digest"
    "e0c7667ee97c293549ec01bf8956261a" (stream_fixture ())

let test_gaussians_into_matches_gaussian () =
  let a = Rng.create ~seed:31 and b = Rng.create ~seed:31 in
  ignore (Rng.gaussian a);
  ignore (Rng.gaussian b);
  (* A spare is pending: the batch must start with it. *)
  let out = Float.Array.make 13 nan in
  Rng.gaussians_into a out ~pos:2 ~len:9;
  for i = 2 to 10 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Int64.bits_of_float (Rng.gaussian b))
      (Int64.bits_of_float (Float.Array.get out i))
  done;
  Alcotest.(check bool) "outside the range untouched" true
    (Float.is_nan (Float.Array.get out 1) && Float.is_nan (Float.Array.get out 11));
  check_raises_invalid "range past the end" (fun () ->
      Rng.gaussians_into a out ~pos:5 ~len:9)

let test_gaussians_into_allocates_nothing () =
  let rng = Rng.create ~seed:37 in
  let out = Float.Array.make 64 0.0 in
  let words =
    words_per_call ~n:2000 (fun () -> Rng.gaussians_into rng out ~pos:0 ~len:64)
  in
  (* The counter read itself boxes a float: allow that, not a word per
     draw. *)
  check_in_range "words per 64 draws" ~lo:0.0 ~hi:0.01 words

let suite =
  [
    quick "determinism" test_determinism;
    quick "seed sensitivity" test_seed_sensitivity;
    quick "float in [0,1)" test_float_range;
    slow "uniform moments" test_float_moments;
    quick "uniform range" test_uniform;
    slow "int buckets unbiased" test_int_bounds;
    slow "int chi-square unbiased" test_int_chi_square;
    quick "int bound 1" test_int_bound_one;
    quick "int huge bound terminates" test_int_huge_bound;
    slow "gaussian moments" test_gaussian_moments;
    slow "gaussian KS normality" test_gaussian_normality;
    slow "gaussian mu/sigma" test_gaussian_mu_sigma;
    quick "split independence" test_split_independence;
    slow "split cross-stream correlation" test_split_cross_stream_correlation;
    quick "split determinism" test_split_determinism;
    quick "split golden fixture" test_split_golden;
    quick "split rejects n <= 0" test_split_rejects_nonpositive;
    quick "copy" test_copy;
    quick "raw stream fixture" test_stream_fixture;
    quick "gaussians_into matches gaussian" test_gaussians_into_matches_gaussian;
    quick "gaussians_into allocates nothing" test_gaussians_into_allocates_nothing;
    quick "shuffle is a permutation" test_shuffle_permutation;
  ]
