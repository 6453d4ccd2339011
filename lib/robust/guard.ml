module G = Spv_stats.Gaussian

(* ---- finiteness ----------------------------------------------------- *)

let finite ~where x =
  if Float.is_finite x then Ok x
  else
    Error
      (Errors.numeric ~where
         (Printf.sprintf "produced a non-finite value (%s)"
            (if Float.is_nan x then "NaN"
             else if x > 0.0 then "+inf"
             else "-inf")))

let finite_array ~where xs =
  let bad = ref (-1) in
  Array.iteri
    (fun i x -> if !bad < 0 && not (Float.is_finite x) then bad := i)
    xs;
  if !bad < 0 then Ok xs
  else
    Error
      (Errors.numeric ~where
         (Printf.sprintf "non-finite value at index %d" !bad))

let finite_gaussian ~where g =
  (* Gaussian.make already rejects non-finite parameters, so this only
     fires on values smuggled past the smart constructor; check anyway
     — it is the post-condition every SSTA/Clark result must meet. *)
  if Float.is_finite (G.mu g) && Float.is_finite (G.sigma g) then Ok g
  else
    Error
      (Errors.numeric ~where
         (Printf.sprintf "non-finite distribution N(%g, %g)" (G.mu g)
            (G.sigma g)))

(* ---- correlation clamping ------------------------------------------- *)

let clamp_rho ~where rho =
  if Float.is_nan rho then
    Error (Errors.numeric ~where "correlation coefficient is NaN")
  else if rho >= -1.0 && rho <= 1.0 then Ok (rho, false)
  else if rho >= -1.0 -. 1e-6 && rho <= 1.0 +. 1e-6 then
    (* Accumulated floating-point error, e.g. from the Clark recursion:
       clamp and report rather than abort. *)
    Ok (Float.max (-1.0) (Float.min 1.0 rho), true)
  else
    Error
      (Errors.numeric ~where
         (Printf.sprintf "correlation %g is far outside [-1, 1]" rho))
