module M = Spv_stats.Matrix
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

(* ---- PSD repair of correlation matrices ----------------------------- *)

type psd_report = {
  repaired : bool;
  min_eigenvalue : float;
  max_abs_delta : float;
  frobenius_delta : float;
}

let pp_psd_report fmt r =
  if r.repaired then
    Format.fprintf fmt
      "repaired non-PSD correlation (min eigenvalue %.3g, max entry \
       perturbation %.3g, Frobenius %.3g)"
      r.min_eigenvalue r.max_abs_delta r.frobenius_delta
  else Format.fprintf fmt "correlation PSD (min eigenvalue %.3g)" r.min_eigenvalue

let repair_correlation ?(eps = 1e-10) corr =
  let where = "Guard.repair_correlation" in
  let n = M.rows corr in
  if M.cols corr <> n then
    Error (Errors.numeric ~where "correlation matrix is not square")
  else begin
    let bad_entry = ref None in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if !bad_entry = None && not (Float.is_finite (M.get corr i j)) then
          bad_entry := Some (i, j)
      done
    done;
    match !bad_entry with
    | Some (i, j) ->
        Error
          (Errors.numeric ~where
             (Printf.sprintf "non-finite entry at (%d, %d)" i j))
    | None ->
        if not (M.is_symmetric ~eps:1e-8 corr) then
          Error (Errors.numeric ~where "correlation matrix is not symmetric")
        else begin
          let diag_ok = ref true in
          for i = 0 to n - 1 do
            if abs_float (M.get corr i i -. 1.0) > 1e-6 then diag_ok := false
          done;
          if not !diag_ok then
            Error
              (Errors.numeric ~where "correlation matrix diagonal is not 1")
          else begin
            let entries_in_range = ref true in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                let v = M.get corr i j in
                if v < -1.0 -. 1e-6 || v > 1.0 +. 1e-6 then
                  entries_in_range := false
              done
            done;
            if not !entries_in_range then
              Error
                (Errors.numeric ~where
                   "correlation entry far outside [-1, 1]")
            else begin
              let vals, vecs = M.sym_eig corr in
              let min_eig = Array.fold_left Float.min infinity vals in
              let max_eig = Array.fold_left Float.max neg_infinity vals in
              if min_eig >= -.eps then
                Ok
                  ( M.copy corr,
                    {
                      repaired = false;
                      min_eigenvalue = min_eig;
                      max_abs_delta = 0.0;
                      frobenius_delta = 0.0;
                    } )
              else if max_eig <= 0.0 then
                Error
                  (Errors.numeric ~where
                     "correlation matrix is negative semi-definite; not \
                      repairable")
              else begin
                (* Higham-style shrinkage: clip the spectrum at a tiny
                   positive floor, reconstruct, then rescale back to
                   unit diagonal so the result is again a correlation
                   matrix. *)
                let floor = 1e-8 *. max_eig in
                let clipped = Array.map (fun l -> Float.max l floor) vals in
                let raw =
                  M.init ~rows:n ~cols:n (fun i j ->
                      let acc = ref 0.0 in
                      for k = 0 to n - 1 do
                        acc :=
                          !acc
                          +. (M.get vecs i k *. clipped.(k) *. M.get vecs j k)
                      done;
                      !acc)
                in
                let d = Array.init n (fun i -> sqrt (M.get raw i i)) in
                if Array.exists (fun x -> not (x > 0.0)) d then
                  Error
                    (Errors.numeric ~where
                       "PSD repair produced a zero-variance row")
                else begin
                  let repaired_m =
                    M.init ~rows:n ~cols:n (fun i j ->
                        if i = j then 1.0
                        else
                          let v = M.get raw i j /. (d.(i) *. d.(j)) in
                          Float.max (-1.0) (Float.min 1.0 v))
                  in
                  (* Exact symmetry despite floating-point noise. *)
                  let repaired_m =
                    M.init ~rows:n ~cols:n (fun i j ->
                        if i = j then 1.0
                        else
                          0.5
                          *. (M.get repaired_m i j +. M.get repaired_m j i))
                  in
                  let max_delta = ref 0.0 and frob = ref 0.0 in
                  for i = 0 to n - 1 do
                    for j = 0 to n - 1 do
                      let dv = M.get repaired_m i j -. M.get corr i j in
                      max_delta := Float.max !max_delta (abs_float dv);
                      frob := !frob +. (dv *. dv)
                    done
                  done;
                  if Spv_stats.Correlation.is_valid repaired_m then
                    Ok
                      ( repaired_m,
                        {
                          repaired = true;
                          min_eigenvalue = min_eig;
                          max_abs_delta = !max_delta;
                          frobenius_delta = sqrt !frob;
                        } )
                  else
                    Error
                      (Errors.numeric ~where
                         "PSD repair failed to produce a valid correlation \
                          matrix")
                end
              end
            end
          end
        end
  end
