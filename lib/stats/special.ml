(* The error function is evaluated through the regularised lower
   incomplete gamma function P(1/2, x^2): a power series for small
   arguments and a continued fraction (modified Lentz) for large ones.
   This reaches near machine precision, which matters because the Clark
   recursion and the yield inversions repeatedly compose [big_phi] and
   [big_phi_inv]. *)

let gamma_half = sqrt Float.pi

(* The erfc chain is marked [@inline] and written with loops over local
   refs, not recursion, so [big_phi_into] and [upper_tail_into] compile
   it into their own loops and box no float (DESIGN §3b); the
   arithmetic, and so every result bit, is the same either way. *)

(* Series for P(a, x) with a = 1/2, valid for x < a + 1. *)
let[@inline] gammp_half_series x =
  let a = 0.5 in
  let ap = ref a and sum = ref (1.0 /. a) and del = ref (1.0 /. a) in
  while not (abs_float !del < abs_float !sum *. 1e-16) do
    ap := !ap +. 1.0;
    del := !del *. x /. !ap;
    sum := !sum +. !del
  done;
  !sum *. exp ((-.x) +. (a *. log x)) /. gamma_half

(* Continued fraction for Q(a, x) with a = 1/2, valid for x >= a + 1. *)
let[@inline] gammq_half_cf x =
  let a = 0.5 in
  let fpmin = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. fpmin) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let continue = ref true in
  while !continue && !i <= 200 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if abs_float !d < fpmin then d := fpmin;
    c := !b +. (an /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.0) < 1e-16 then continue := false;
    incr i
  done;
  exp ((-.x) +. (a *. log x)) *. !h /. gamma_half

let erf x =
  if x = 0.0 then 0.0
  else
    let z = x *. x in
    let v =
      if z < 1.5 then gammp_half_series z else 1.0 -. gammq_half_cf z
    in
    if x > 0.0 then v else -.v

let[@inline] erfc_pos x =
  let z = x *. x in
  if z = 0.0 then 1.0
  (* |x| >~ 1.34e154 (or inf): x *. x overflows and the continued
     fraction would give inf /. inf; erfc has long underflowed. *)
  else if z = Float.infinity then 0.0
  else if z < 1.5 then 1.0 -. gammp_half_series z
  else gammq_half_cf z

let[@inline] erfc x = if x < 0.0 then 2.0 -. erfc_pos (-.x) else erfc_pos x

let sqrt2 = sqrt 2.0

let phi x = exp (-0.5 *. x *. x) /. sqrt (2.0 *. Float.pi)

let big_phi x = 0.5 *. erfc (-.x /. sqrt2)

(* Stable survival function: [1. -. big_phi x] cancels catastrophically
   once big_phi rounds to 1 (x >~ 8), silently reporting a zero tail.
   erfc_pos keeps full relative precision out to the underflow limit of
   the double range (x ~ 38), through the same continued fraction the
   Mills-ratio expansion in [log_big_phi] backs onto. *)
let upper_tail x = 0.5 *. erfc (x /. sqrt2)

let big_phi_into a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Float.Array.length a then
    invalid_arg "Special.big_phi_into: range out of bounds";
  for i = pos to pos + len - 1 do
    Float.Array.unsafe_set a i
      (0.5 *. erfc (-.Float.Array.unsafe_get a i /. sqrt2))
  done

let upper_tail_into a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Float.Array.length a then
    invalid_arg "Special.upper_tail_into: range out of bounds";
  for i = pos to pos + len - 1 do
    Float.Array.unsafe_set a i (0.5 *. erfc (Float.Array.unsafe_get a i /. sqrt2))
  done

let log_big_phi x =
  if x > -8.0 then log (big_phi x)
  else
    (* Asymptotic expansion of the Mills ratio for the deep left tail:
       Phi(x) ~ phi(x)/(-x) * (1 - 1/x^2 + 3/x^4 - ...). *)
    let z = x *. x in
    let series = 1.0 -. (1.0 /. z) +. (3.0 /. (z *. z)) -. (15.0 /. (z *. z *. z)) in
    (-0.5 *. z) -. log (-.x) -. (0.5 *. log (2.0 *. Float.pi)) +. log series

(* Acklam's inverse-normal rational approximation, then one Halley step
   against our high-accuracy [big_phi]. *)
let big_phi_inv_raw p =
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let tail_num q =
    (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
    +. c.(5)
  in
  let tail_den q =
    ((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0
  in
  if p < p_low then
    let q = sqrt (-2.0 *. log p) in
    tail_num q /. tail_den q
  else if p <= 1.0 -. p_low then
    let q = p -. 0.5 in
    let r = q *. q in
    let num =
      ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
       *. r
      +. a.(5))
      *. q
    in
    let den =
      (((((b.(0) *. r) +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
      *. r
      +. 1.0
    in
    num /. den
  else
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.(tail_num q /. tail_den q)

let big_phi_inv p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Special.big_phi_inv: p must lie in (0, 1)";
  let x = big_phi_inv_raw p in
  (* One Halley step: corrects the 1e-9 raw error to ~1e-13. *)
  let e = big_phi x -. p in
  let u = e /. phi x in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let normal_cdf ~mu ~sigma x =
  assert (sigma >= 0.0);
  if sigma = 0.0 then if x >= mu then 1.0 else 0.0
  else big_phi ((x -. mu) /. sigma)

let normal_pdf ~mu ~sigma x =
  assert (sigma > 0.0);
  phi ((x -. mu) /. sigma) /. sigma

let normal_quantile ~mu ~sigma ~p =
  assert (sigma >= 0.0);
  mu +. (sigma *. big_phi_inv p)
