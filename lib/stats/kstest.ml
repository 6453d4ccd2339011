type result = { statistic : float; p_value : float; n : int }

let kolmogorov_sf lambda =
  if lambda <= 0.0 then 1.0
  else begin
    let sum = ref 0.0 in
    let term = ref infinity in
    let k = ref 1 in
    while abs_float !term > 1e-12 && !k <= 100 do
      let fk = float_of_int !k in
      term :=
        2.0
        *. (if !k mod 2 = 1 then 1.0 else -1.0)
        *. exp (-2.0 *. fk *. fk *. lambda *. lambda);
      sum := !sum +. !term;
      incr k
    done;
    Float.max 0.0 (Float.min 1.0 !sum)
  end

let against_cdf samples ~cdf =
  (match Descriptive.validate_samples samples with
  | Ok () -> ()
  | Error e ->
      invalid_arg
        ("Kstest.against_cdf: " ^ Descriptive.sample_error_to_string e));
  let n = Array.length samples in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let d = ref 0.0 in
  for i = 0 to n - 1 do
    let f = cdf sorted.(i) in
    let emp_hi = float_of_int (i + 1) /. float_of_int n in
    let emp_lo = float_of_int i /. float_of_int n in
    d := Float.max !d (Float.max (abs_float (emp_hi -. f)) (abs_float (f -. emp_lo)))
  done;
  let sqrt_n = sqrt (float_of_int n) in
  (* Stephens' finite-sample correction. *)
  let lambda = (sqrt_n +. 0.12 +. (0.11 /. sqrt_n)) *. !d in
  { statistic = !d; p_value = kolmogorov_sf lambda; n }

let against_gaussian samples g = against_cdf samples ~cdf:(Gaussian.cdf g)
