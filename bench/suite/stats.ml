(* Order statistics for benchmark samples.

   Percentiles use the nearest-rank rule: the p-th percentile of n
   samples is the sample at rank ceil(p * n) (1-based) of the sorted
   array, so it is always a measured value.  A percentile is only
   reported when at least [min_tail] samples lie beyond it, which for
   p90 means at least 100 samples. *)

let min_tail = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let rank ~n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

(* Samples strictly beyond the p-th percentile's rank. *)
let beyond ~n p = n - rank ~n p

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted xs).(rank ~n p - 1)

(* [percentile] with the tail rule applied: [Error] when fewer than
   [min_tail] samples lie beyond the requested rank. *)
let percentile_checked xs p =
  let n = Array.length xs in
  if n = 0 then Error "no samples"
  else if beyond ~n p < min_tail then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, %d samples give %d"
         (100.0 *. p) min_tail n (beyond ~n p))
  else Ok (percentile xs p)

(* Python's [statistics.quantiles(xs, n)] with its default exclusive
   method, so spreads computed here match the ones a Python reader
   computes from the same values. *)
let quantiles ?(n = 4) xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stats.quantiles: need at least two samples";
  let data = sorted xs in
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((data.(j - 1) *. float_of_int (n - delta))
      +. (data.(j) *. float_of_int delta))
      /. float_of_int n)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let iqr xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> q3 -. q1
  | _ -> assert false
