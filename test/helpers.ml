(* Shared test utilities. *)

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let check_close ?(rel = 1e-6) name expected actual =
  let eps = abs_float expected *. rel in
  Alcotest.(check (float (Float.max eps 1e-12))) name expected actual

let check_in_range name ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %g outside [%g, %g]" name actual lo hi

let check_raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Invalid_argument, got %s" name
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got a value" name

let matrix_is_symmetric ?(eps = 1e-10) m =
  let module M = Spv_stats.Matrix in
  M.rows m = M.cols m
  &&
  let ok = ref true in
  for i = 0 to M.rows m - 1 do
    for j = i + 1 to M.cols m - 1 do
      if abs_float (M.get m i j -. M.get m j i) > eps then ok := false
    done
  done;
  !ok

(* A valid correlation matrix: symmetric, unit diagonal, entries in
   [-1, 1] and positive semi-definite (checked by jittered Cholesky). *)
let correlation_is_valid ?(eps = 1e-9) m =
  let module M = Spv_stats.Matrix in
  matrix_is_symmetric ~eps m
  &&
  let n = M.rows m in
  let entries_ok = ref true in
  for i = 0 to n - 1 do
    if abs_float (M.get m i i -. 1.0) > eps then entries_ok := false;
    for j = 0 to n - 1 do
      let v = M.get m i j in
      if v < -1.0 -. eps || v > 1.0 +. eps then entries_ok := false
    done
  done;
  !entries_ok
  && (try ignore (M.cholesky_psd m); true with Failure _ -> false)

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let prop ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* Minor-heap words allocated per call of [f], over [n] calls after
   one warm-up call. *)
let words_per_call ~n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* Delay factors of one inverter of drive [size] — a one-gate stage
   without flip-flop, so its trial delay is nominal x factor — over
   [n] gate-level kernel trials of [tech]. *)
let inverter_factors ?(size = 1.0) tech ~seed ~n =
  let net = Spv_circuit.Generators.inverter_chain ~size ~depth:1 () in
  let nominal = (Spv_circuit.Sta.run tech net).Spv_circuit.Sta.delay in
  let s = Spv_circuit.Ssta.sampler (Spv_circuit.Ssta.plan tech [| net |]) in
  let rng = Spv_stats.Rng.create ~seed in
  Array.init n (fun _ -> Spv_circuit.Ssta.draw_pipeline_delay s rng /. nominal)
