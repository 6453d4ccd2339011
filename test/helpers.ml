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
