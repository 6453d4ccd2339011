type t = {
  mus : float array;
  sigmas : float array;
  corr : Correlation.t;
  chol : Matrix.t;
}

let create ~mus ~sigmas ~corr =
  let n = Array.length mus in
  if Array.length sigmas <> n then invalid_arg "Mvn.create: sigmas length mismatch";
  if Matrix.rows corr <> n || Matrix.cols corr <> n then
    invalid_arg "Mvn.create: correlation dimension mismatch";
  Array.iter
    (fun s -> if s < 0.0 then invalid_arg "Mvn.create: negative sigma")
    sigmas;
  let cov =
    Matrix.init ~rows:n ~cols:n (fun i j ->
        Matrix.get corr i j *. sigmas.(i) *. sigmas.(j))
  in
  (* Degenerate covariances (zero sigma, rho = 1) are routine here, so
     use the jitter-tolerant factorisation. *)
  let chol =
    if Array.for_all (fun s -> s = 0.0) sigmas then Matrix.create ~rows:n ~cols:n
    else Matrix.cholesky_psd cov
  in
  { mus = Array.copy mus; sigmas = Array.copy sigmas; corr; chol }

let dim t = Array.length t.mus

let transform t z =
  let n = dim t in
  if Array.length z <> n then invalid_arg "Mvn.transform: dimension mismatch";
  let correlated = Matrix.mat_vec t.chol z in
  Array.init n (fun i -> t.mus.(i) +. correlated.(i))

let sample t rng =
  transform t (Array.init (dim t) (fun _ -> Rng.gaussian rng))

let sample_many t rng ~n = Array.init n (fun _ -> sample t rng)

let transform_into t z x =
  let n = dim t in
  if Float.Array.length z <> n || Float.Array.length x <> n then
    invalid_arg "Mvn.transform_into: dimension mismatch";
  Matrix.lower_mat_vec_into t.chol z x;
  for i = 0 to n - 1 do
    Float.Array.unsafe_set x i (t.mus.(i) +. Float.Array.unsafe_get x i)
  done

type sampler = { mvn : t; z : Float.Array.t; x : Float.Array.t }

let sampler t =
  let n = dim t in
  { mvn = t; z = Float.Array.make n 0.0; x = Float.Array.make n 0.0 }

let sample_max s rng =
  let n = dim s.mvn in
  Rng.gaussians_into rng s.z ~pos:0 ~len:n;
  transform_into s.mvn s.z s.x;
  let worst = ref neg_infinity in
  for i = 0 to n - 1 do
    worst := Float.max !worst (Float.Array.unsafe_get s.x i)
  done;
  !worst

let cholesky_row t i =
  let n = dim t in
  if i < 0 || i >= n then invalid_arg "Mvn.cholesky_row: index out of range";
  Array.init n (fun j -> Matrix.get t.chol i j)

let cholesky t = t.chol
let means t = t.mus
let sigmas t = t.sigmas
let mean t i = t.mus.(i)
let marginal t i = Gaussian.make ~mu:t.mus.(i) ~sigma:t.sigmas.(i)
let covariance t i j = Matrix.get t.corr i j *. t.sigmas.(i) *. t.sigmas.(j)
