let simpson ~f ~lo ~hi ~n =
  if n <= 0 then invalid_arg "Quadrature.simpson: n <= 0";
  let n = if n mod 2 = 0 then n else n + 1 in
  let h = (hi -. lo) /. float_of_int n in
  let sum = ref (f lo +. f hi) in
  for i = 1 to n - 1 do
    let x = lo +. (float_of_int i *. h) in
    sum := !sum +. ((if i mod 2 = 1 then 4.0 else 2.0) *. f x)
  done;
  !sum *. h /. 3.0

let adaptive_simpson ?(eps = 1e-10) ~f ~lo ~hi () =
  let simpson3 a b =
    let c = (a +. b) /. 2.0 in
    ((b -. a) /. 6.0) *. (f a +. (4.0 *. f c) +. f b)
  in
  let rec go a b whole eps depth =
    let c = (a +. b) /. 2.0 in
    let left = simpson3 a c and right = simpson3 c b in
    let diff = left +. right -. whole in
    if depth <= 0 || abs_float diff <= 15.0 *. eps then
      left +. right +. (diff /. 15.0)
    else
      go a c left (eps /. 2.0) (depth - 1)
      +. go c b right (eps /. 2.0) (depth - 1)
  in
  go lo hi (simpson3 lo hi) eps 50

(* Nodes/weights for the positive half of the 32-point rule. *)
let gl32_nodes =
  [| 0.0483076656877383162; 0.1444719615827964934; 0.2392873622521370745;
     0.3318686022821276497; 0.4213512761306353453; 0.5068999089322293900;
     0.5877157572407623290; 0.6630442669302152009; 0.7321821187402896803;
     0.7944837959679424069; 0.8493676137325699701; 0.8963211557660521240;
     0.9349060759377396891; 0.9647622555875064307; 0.9856115115452683354;
     0.9972638618494815635 |]

let gl32_weights =
  [| 0.0965400885147278006; 0.0956387200792748594; 0.0938443990808045654;
     0.0911738786957638847; 0.0876520930044038111; 0.0833119242269467552;
     0.0781938957870703065; 0.0723457941088485062; 0.0658222227763618468;
     0.0586840934785355471; 0.0509980592623761762; 0.0428358980222266807;
     0.0342738629130214331; 0.0253920653092620595; 0.0162743947309056706;
     0.0070186100094700966 |]

let gauss_legendre_32 ~f ~lo ~hi =
  let mid = (lo +. hi) /. 2.0 and half = (hi -. lo) /. 2.0 in
  let acc = ref 0.0 in
  for i = 0 to 15 do
    let dx = half *. gl32_nodes.(i) in
    acc := !acc +. (gl32_weights.(i) *. (f (mid +. dx) +. f (mid -. dx)))
  done;
  !acc *. half

let expectation_of_max2 ~mu1 ~sigma1 ~mu2 ~sigma2 ~rho =
  assert (sigma1 > 0.0 && sigma2 > 0.0);
  assert (rho > -1.0 && rho < 1.0);
  (* E[g(max)] = int phi(z1) int g(...) phi over the conditional:
     write X1 = mu1 + s1 Z, X2 | Z ~ N(mu2 + rho s2 Z, s2 sqrt(1-rho^2)).
     Then E[g(max(X1,X2))] = E_Z E[g(max(x1(Z), X2))|Z], and the inner
     expectation over a scalar Gaussian is a 1-D integral. *)
  let s2c = sigma2 *. sqrt (1.0 -. (rho *. rho)) in
  let inner g z =
    let x1 = mu1 +. (sigma1 *. z) in
    let m2 = mu2 +. (rho *. sigma2 *. z) in
    let h u =
      let x2 = m2 +. (s2c *. u) in
      g (Float.max x1 x2) *. Special.phi u
    in
    (* The integrand has a kink where x2 = x1; split there so each
       Gauss-Legendre panel sees a smooth function. *)
    let kink = Float.max (-8.0) (Float.min 8.0 ((x1 -. m2) /. s2c)) in
    gauss_legendre_32 ~f:h ~lo:(-8.0) ~hi:kink
    +. gauss_legendre_32 ~f:h ~lo:kink ~hi:8.0
  in
  let outer g =
    gauss_legendre_32
      ~f:(fun z -> inner g z *. Special.phi z)
      ~lo:(-8.0) ~hi:8.0
  in
  (outer (fun x -> x), outer (fun x -> x *. x))
