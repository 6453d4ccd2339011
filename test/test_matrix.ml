open Helpers
module M = Spv_stats.Matrix

let check_matrix name expected actual =
  Alcotest.(check int) (name ^ " rows") (M.rows expected) (M.rows actual);
  Alcotest.(check int) (name ^ " cols") (M.cols expected) (M.cols actual);
  for i = 0 to M.rows expected - 1 do
    for j = 0 to M.cols expected - 1 do
      check_float ~eps:1e-9
        (Printf.sprintf "%s[%d,%d]" name i j)
        (M.get expected i j) (M.get actual i j)
    done
  done

let test_identity_mul () =
  let a = M.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_matrix "I*a = a" a (M.mul (M.identity 2) a);
  check_matrix "a*I = a" a (M.mul a (M.identity 2))

let test_mul_known () =
  let a = M.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = M.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let expected = M.of_arrays [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |] in
  check_matrix "a*b" expected (M.mul a b)

let test_transpose () =
  let a = M.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = M.transpose a in
  Alcotest.(check int) "rows" 3 (M.rows t);
  check_float "t[2,1]" 6.0 (M.get t 2 1);
  check_matrix "double transpose" a (M.transpose t)

let test_mat_vec () =
  let a = M.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = M.mat_vec a [| 1.0; 1.0 |] in
  check_float "y0" 3.0 y.(0);
  check_float "y1" 7.0 y.(1)

let spd_example =
  M.of_arrays
    [| [| 4.0; 2.0; 0.6 |]; [| 2.0; 5.0; 1.0 |]; [| 0.6; 1.0; 3.0 |] |]

let test_cholesky_reconstruction () =
  let l = M.cholesky spd_example in
  check_matrix "l l^T = a" spd_example (M.mul l (M.transpose l));
  (* Lower triangular: upper entries zero. *)
  check_float "upper zero" 0.0 (M.get l 0 2)

let test_cholesky_rejects_non_spd () =
  let bad = M.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  match M.cholesky bad with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on indefinite matrix"

let test_cholesky_psd () =
  (* Rank-deficient: perfectly correlated 2x2. *)
  let psd = M.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let l = M.cholesky_psd psd in
  let rebuilt = M.mul l (M.transpose l) in
  check_float ~eps:1e-4 "rebuilt[0,1]" 1.0 (M.get rebuilt 0 1)

let test_lower_mat_vec_into () =
  let l = M.cholesky spd_example in
  let xs = [| -1.25; 0.5; 3.0 |] in
  let x = Float.Array.map_from_array Fun.id xs in
  let out = Float.Array.make 3 nan in
  M.lower_mat_vec_into l x out;
  let fbits = Float.Array.map_to_array Int64.bits_of_float in
  Alcotest.(check (array int64))
    "bit-equal to mat_vec"
    (Array.map Int64.bits_of_float (M.mat_vec l xs))
    (fbits out);
  (* The upper triangle is never read. *)
  let junk = M.copy l in
  M.set junk 0 1 1e300;
  M.set junk 0 2 nan;
  M.set junk 1 2 (-7.0);
  let out' = Float.Array.make 3 nan in
  M.lower_mat_vec_into junk x out';
  Alcotest.(check (array int64))
    "upper triangle ignored" (fbits out) (fbits out');
  check_raises_invalid "not square" (fun () ->
      M.lower_mat_vec_into
        (M.of_arrays [| [| 1.0; 2.0 |] |])
        (Float.Array.make 2 0.0) (Float.Array.make 1 0.0))

let test_solve_spd () =
  let b = [| 1.0; 2.0; 3.0 |] in
  let x = M.solve_spd spd_example b in
  let back = M.mat_vec spd_example x in
  Array.iteri (fun i v -> check_close ~rel:1e-9 "solve residual" b.(i) v) back

let test_triangular_solvers () =
  let l = M.of_arrays [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  let x = M.solve_lower l [| 4.0; 11.0 |] in
  check_float "x0" 2.0 x.(0);
  check_float "x1" 3.0 x.(1);
  let u = M.transpose l in
  let y = M.solve_upper u [| 7.0; 9.0 |] in
  check_float "y1" 3.0 y.(1);
  check_float "y0" 2.0 y.(0)

let test_least_squares () =
  (* Fit y = 2x + 1 exactly. *)
  let a = M.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 2.0 |]; [| 1.0; 3.0 |] |] in
  let coef = M.least_squares a [| 3.0; 5.0; 7.0 |] in
  check_close ~rel:1e-9 "intercept" 1.0 coef.(0);
  check_close ~rel:1e-9 "slope" 2.0 coef.(1)

let test_is_symmetric () =
  Alcotest.(check bool) "spd symmetric" true (M.is_symmetric spd_example);
  let asym = M.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "asymmetric" false (M.is_symmetric asym)

let test_dimension_errors () =
  let a = M.of_arrays [| [| 1.0; 2.0 |] |] in
  check_raises_invalid "mul mismatch" (fun () -> M.mul a a);
  check_raises_invalid "mat_vec mismatch" (fun () -> M.mat_vec a [| 1.0 |]);
  check_raises_invalid "ragged" (fun () ->
      M.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |])

let prop_cholesky_roundtrip =
  (* Random SPD matrices built as B B^T + eps I. *)
  prop ~count:50 "cholesky roundtrip"
    QCheck2.Gen.(array_size (return 9) (float_range (-2.0) 2.0))
    (fun entries ->
      let b = M.init ~rows:3 ~cols:3 (fun i j -> entries.((3 * i) + j)) in
      let a =
        M.add (M.mul b (M.transpose b))
          (M.scale (M.identity 3) 0.01)
      in
      let l = M.cholesky a in
      let r = M.mul l (M.transpose l) in
      let ok = ref true in
      for i = 0 to 2 do
        for j = 0 to 2 do
          if abs_float (M.get r i j -. M.get a i j) > 1e-8 then ok := false
        done
      done;
      !ok)

let suite =
  [
    quick "identity multiplication" test_identity_mul;
    quick "known product" test_mul_known;
    quick "transpose" test_transpose;
    quick "mat_vec" test_mat_vec;
    quick "lower_mat_vec_into" test_lower_mat_vec_into;
    quick "cholesky reconstruction" test_cholesky_reconstruction;
    quick "cholesky rejects non-SPD" test_cholesky_rejects_non_spd;
    quick "cholesky PSD jitter" test_cholesky_psd;
    quick "solve SPD" test_solve_spd;
    quick "triangular solves" test_triangular_solvers;
    quick "least squares" test_least_squares;
    quick "symmetry check" test_is_symmetric;
    quick "dimension errors" test_dimension_errors;
    prop_cholesky_roundtrip;
  ]
