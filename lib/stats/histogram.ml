type t = {
  lo : float;
  hi : float;
  counts : int array;
  mutable inserted : int;
  mutable under : int;
  mutable over : int;
  mutable rejected : int;
}

let create ~lo ~hi ~bins =
  if not (lo < hi) then invalid_arg "Histogram.create: lo >= hi";
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  {
    lo;
    hi;
    counts = Array.make bins 0;
    inserted = 0;
    under = 0;
    over = 0;
    rejected = 0;
  }

let of_samples ?(bins = 50) samples =
  (match Descriptive.validate_samples samples with
  | Ok () -> ()
  | Error e ->
      invalid_arg
        ("Histogram.of_samples: " ^ Descriptive.sample_error_to_string e));
  let lo, hi = Descriptive.min_max samples in
  let pad = Float.max ((hi -. lo) *. 0.01) 1e-9 in
  let h = create ~lo:(lo -. pad) ~hi:(hi +. pad) ~bins in
  Array.iter
    (fun x ->
      let nbins = Array.length h.counts in
      let idx =
        int_of_float (float_of_int nbins *. (x -. h.lo) /. (h.hi -. h.lo))
      in
      let idx = Stdlib.max 0 (Stdlib.min (nbins - 1) idx) in
      h.counts.(idx) <- h.counts.(idx) + 1;
      h.inserted <- h.inserted + 1)
    samples;
  h

let add t x =
  (* A NaN would otherwise fall through every comparison and be binned
     at a garbage index — count it separately instead. *)
  if not (Float.is_finite x) then t.rejected <- t.rejected + 1
  else begin
    t.inserted <- t.inserted + 1;
    if x < t.lo then t.under <- t.under + 1
    else if x >= t.hi then t.over <- t.over + 1
    else begin
    let nbins = Array.length t.counts in
      let idx =
        int_of_float (float_of_int nbins *. (x -. t.lo) /. (t.hi -. t.lo))
      in
      let idx = Stdlib.min (nbins - 1) idx in
      t.counts.(idx) <- t.counts.(idx) + 1
    end
  end

let add_all t = Array.iter (add t)

let bins t = Array.length t.counts

let count t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram.count: bad index";
  t.counts.(i)

let total t = t.inserted
let underflow t = t.under
let overflow t = t.over
let rejected t = t.rejected
let bin_width t = (t.hi -. t.lo) /. float_of_int (bins t)

let bin_center t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram.bin_center: bad index";
  t.lo +. ((float_of_int i +. 0.5) *. bin_width t)

let density t i =
  if t.inserted = 0 then 0.0
  else float_of_int (count t i) /. (float_of_int t.inserted *. bin_width t)

let frequency t i =
  if t.inserted = 0 then 0.0
  else float_of_int (count t i) /. float_of_int t.inserted

let mode_bin t =
  if t.inserted - t.under - t.over <= 0 then
    invalid_arg "Histogram.mode_bin: no in-range observations";
  let best = ref 0 in
  for i = 1 to bins t - 1 do
    if t.counts.(i) > t.counts.(!best) then best := i
  done;
  !best

let to_series t = Array.init (bins t) (fun i -> (bin_center t i, density t i))
