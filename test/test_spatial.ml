open Helpers
module Sp = Spv_process.Spatial
module Tech = Spv_process.Tech

let test_distance () =
  let a = Sp.position ~x:0.0 ~y:0.0 and b = Sp.position ~x:3.0 ~y:4.0 in
  check_float "3-4-5" 5.0 (Sp.distance a b);
  check_float "self" 0.0 (Sp.distance a a)

let test_row_positions () =
  let ps = Sp.row_positions ~n:4 ~pitch:2.5 in
  Alcotest.(check int) "count" 4 (Array.length ps);
  check_float "x of 3rd" 5.0 ps.(2).Sp.x;
  check_float "y zero" 0.0 ps.(2).Sp.y;
  check_raises_invalid "n=0" (fun () -> Sp.row_positions ~n:0 ~pitch:1.0)

let test_correlation_decay () =
  let t = Tech.bptm70 in
  let a = Sp.position ~x:0.0 ~y:0.0 in
  let near = Sp.position ~x:0.1 ~y:0.0 in
  let far = Sp.position ~x:10.0 ~y:0.0 in
  check_float ~eps:1e-12 "self corr" 1.0 (Sp.correlation t a a);
  Alcotest.(check bool) "decay" true
    (Sp.correlation t a near > Sp.correlation t a far);
  check_close ~rel:1e-12 "exp form"
    (exp (-10.0 /. t.Tech.corr_length))
    (Sp.correlation t a far)

let test_correlation_matrix_valid () =
  let t = Tech.bptm70 in
  let ps = Sp.row_positions ~n:6 ~pitch:1.0 in
  let m = Sp.correlation_matrix t ps in
  Alcotest.(check bool) "valid correlation matrix" true
    (Spv_stats.Correlation.is_valid m)

let test_field_statistics () =
  let t = Tech.bptm70 in
  let ps = Sp.row_positions ~n:3 ~pitch:1.0 in
  let factor = Sp.field_factor t ps in
  let rng = Spv_stats.Rng.create ~seed:90 in
  let n = 30_000 in
  let z = Float.Array.make 3 0.0 and field = Float.Array.make 3 0.0 in
  let draws =
    Array.init n (fun _ ->
        Spv_stats.Rng.gaussians_into rng z ~pos:0 ~len:3;
        Spv_stats.Matrix.lower_mat_vec_into factor z field;
        Array.init 3 (Float.Array.get field))
  in
  let col i = Array.map (fun d -> d.(i)) draws in
  (* Unit variance per location. *)
  check_in_range "std loc0" ~lo:0.98 ~hi:1.02 (Spv_stats.Descriptive.std (col 0));
  check_in_range "std loc2" ~lo:0.98 ~hi:1.02 (Spv_stats.Descriptive.std (col 2));
  (* Pairwise correlation matches the exponential model. *)
  let expected01 = exp (-1.0 /. t.Tech.corr_length) in
  check_in_range "corr(0,1)" ~lo:(expected01 -. 0.02) ~hi:(expected01 +. 0.02)
    (Spv_stats.Correlation.sample_correlation (col 0) (col 1));
  let expected02 = exp (-2.0 /. t.Tech.corr_length) in
  check_in_range "corr(0,2)" ~lo:(expected02 -. 0.02) ~hi:(expected02 +. 0.02)
    (Spv_stats.Correlation.sample_correlation (col 0) (col 2))

let suite =
  [
    quick "distance" test_distance;
    quick "row positions" test_row_positions;
    quick "correlation decay" test_correlation_decay;
    quick "correlation matrix validity" test_correlation_matrix_valid;
    slow "field sampler statistics" test_field_statistics;
  ]
