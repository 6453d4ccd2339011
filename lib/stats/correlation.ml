type t = Matrix.t

let of_function ~n f =
  Matrix.init ~rows:n ~cols:n (fun i j ->
      if i = j then 1.0
      else
        let v = if i < j then f i j else f j i in
        if v < -1.0 || v > 1.0 then
          invalid_arg "Correlation.of_function: entry outside [-1,1]";
        v)

let uniform ~n ~rho =
  if n <= 0 then invalid_arg "Correlation.uniform: n <= 0";
  let lo = if n > 1 then -1.0 /. float_of_int (n - 1) else -1.0 in
  if rho < lo || rho > 1.0 then
    invalid_arg "Correlation.uniform: rho outside valid range";
  of_function ~n (fun _ _ -> rho)

let independent ~n = uniform ~n ~rho:0.0
let perfectly_correlated ~n = uniform ~n ~rho:1.0

let exponential_decay ~n ~positions ~length =
  if length <= 0.0 then invalid_arg "Correlation.exponential_decay: length <= 0";
  if Array.length positions <> n then
    invalid_arg "Correlation.exponential_decay: positions length mismatch";
  of_function ~n (fun i j ->
      exp (-.abs_float (positions.(i) -. positions.(j)) /. length))

let blend ~weight a b =
  if weight < 0.0 || weight > 1.0 then
    invalid_arg "Correlation.blend: weight outside [0,1]";
  if Matrix.rows a <> Matrix.rows b then
    invalid_arg "Correlation.blend: dimension mismatch";
  Matrix.add (Matrix.scale a weight) (Matrix.scale b (1.0 -. weight))

let get = Matrix.get

let sample_correlation xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then
    invalid_arg "Correlation.sample_correlation: length mismatch";
  if n < 2 then invalid_arg "Correlation.sample_correlation: need >= 2";
  let mx = Descriptive.mean xs and my = Descriptive.mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 || !syy = 0.0 then
    invalid_arg "Correlation.sample_correlation: degenerate sample";
  !sxy /. sqrt (!sxx *. !syy)
