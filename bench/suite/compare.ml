(* Verdicts for one (workload, metric) between a base and a new commit,
   from paired runs (run i of the base against run i of the new side).

   - better: the new side wins at least 9 of every 10 pairs (ties count
     for neither; at least 10 pairs), and the medians differ by more
     than the base runs' interquartile range;
   - worse: the new median is worse than the base median by more than
     the metric's bound (a share of the base median);
   - unresolved: the base runs' own spread (IQR / median) exceeds the
     bound, unless every new run is better — or every one worse — than
     every base run;
   - same: none of the above. *)

type verdict = Better | Worse | Same | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"
  | Unresolved -> "unresolved"

type row = {
  pairs : int;
  wins : int;
  base_median : float;
  new_median : float;
  spread : float;  (** base IQR / median *)
  verdict : verdict;
}

let min_pairs = 10

let judge ~lower_is_better ~bound ~base ~new_ =
  let n = min (Array.length base) (Array.length new_) in
  if n = 0 then invalid_arg "Compare.judge: no pairs";
  let base = Array.sub base 0 n and new_ = Array.sub new_ 0 n in
  let improves ~from x = if lower_is_better then x < from else x > from in
  let wins = ref 0 in
  for i = 0 to n - 1 do
    if improves ~from:base.(i) new_.(i) then incr wins
  done;
  let mb = Stats.median base and mn = Stats.median new_ in
  let iqr = if n >= 2 then Stats.iqr base else 0.0 in
  let spread = if mb = 0.0 then Float.infinity else iqr /. Float.abs mb in
  let all_better = Array.for_all (fun x -> Array.for_all (fun b -> improves ~from:b x) base) new_ in
  let all_worse = Array.for_all (fun x -> Array.for_all (fun b -> improves ~from:x b) base) new_ in
  let worsening = (if lower_is_better then mn -. mb else mb -. mn) /. Float.abs mb in
  let verdict =
    if n >= 2 && spread > bound && not (all_better || all_worse) then Unresolved
    else if
      n >= min_pairs && !wins * 10 >= 9 * n && improves ~from:mb mn
      && Float.abs (mn -. mb) > iqr
    then Better
    else if worsening > bound then Worse
    else Same
  in
  { pairs = n; wins = !wins; base_median = mb; new_median = mn; spread; verdict }
