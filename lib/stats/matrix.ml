type t = { r : int; c : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dims";
  { r = rows; c = cols; data = Array.make (rows * cols) 0.0 }

let rows t = t.r
let cols t = t.c
let data t = t.data
let get t i j = t.data.((i * t.c) + j)
let set t i j v = t.data.((i * t.c) + j) <- v

let init ~rows ~cols f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let transpose t = init ~rows:t.c ~cols:t.r (fun i j -> get t j i)

let mul a b =
  if a.c <> b.r then invalid_arg "Matrix.mul: dimension mismatch";
  init ~rows:a.r ~cols:b.c (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to a.c - 1 do
        acc := !acc +. (get a i k *. get b k j)
      done;
      !acc)

let mat_vec a x =
  if a.c <> Array.length x then invalid_arg "Matrix.mat_vec: dimension mismatch";
  Array.init a.r (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.c - 1 do
        acc := !acc +. (get a i j *. x.(j))
      done;
      !acc)

(* [get] is not inlined across calls here, and each call boxes its
   result: read [data] directly so a draw allocates nothing.  The upper
   triangle is skipped: a term there is [0 * x] in a Cholesky factor,
   and for finite [x] adding it never changes a sum that starts at
   +0.0. *)
let lower_mat_vec_into l x out =
  let n = l.r in
  if l.c <> n || Float.Array.length x <> n || Float.Array.length out <> n then
    invalid_arg "Matrix.lower_mat_vec_into: dimension mismatch";
  let d = l.data in
  for i = 0 to n - 1 do
    let row = i * n in
    let acc = ref 0.0 in
    for j = 0 to i do
      acc := !acc +. (Array.unsafe_get d (row + j) *. Float.Array.unsafe_get x j)
    done;
    Float.Array.unsafe_set out i !acc
  done

let scale a k = init ~rows:a.r ~cols:a.c (fun i j -> k *. get a i j)

let add a b =
  if a.r <> b.r || a.c <> b.c then invalid_arg "Matrix.add: dimension mismatch";
  init ~rows:a.r ~cols:a.c (fun i j -> get a i j +. get b i j)

let cholesky a =
  if a.r <> a.c then invalid_arg "Matrix.cholesky: not square";
  let n = a.r in
  let l = create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !s <= 0.0 then failwith "Matrix.cholesky: not positive definite";
        set l i j (sqrt !s)
      end
      else set l i j (!s /. get l j j)
    done
  done;
  l

let cholesky_psd a =
  try cholesky a
  with Failure _ ->
    let n = a.r in
    (* Scale the jitter to the largest diagonal entry so it stays
       negligible relative to the actual variances. *)
    let dmax = ref 0.0 in
    for i = 0 to n - 1 do
      dmax := Float.max !dmax (abs_float (get a i i))
    done;
    (* Only a genuinely semi-definite matrix should pass: cap the
       total jitter at 1e-6 of the diagonal scale so an indefinite
       input still fails. *)
    let rec attempt eps tries =
      if tries = 0 then failwith "Matrix.cholesky_psd: not PSD even with jitter"
      else
        let bumped =
          init ~rows:n ~cols:n (fun i j ->
              if i = j then get a i j +. eps else get a i j)
        in
        try cholesky bumped with Failure _ -> attempt (eps *. 100.0) (tries - 1)
    in
    attempt (1e-10 *. Float.max !dmax 1.0) 3

let solve_lower l b =
  let n = l.r in
  if Array.length b <> n then invalid_arg "Matrix.solve_lower: bad rhs";
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for j = 0 to i - 1 do
      s := !s -. (get l i j *. x.(j))
    done;
    x.(i) <- !s /. get l i i
  done;
  x

let solve_upper u b =
  let n = u.r in
  if Array.length b <> n then invalid_arg "Matrix.solve_upper: bad rhs";
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (get u i j *. x.(j))
    done;
    x.(i) <- !s /. get u i i
  done;
  x

let solve_spd a b =
  let l = cholesky a in
  solve_upper (transpose l) (solve_lower l b)

let least_squares a b =
  let at = transpose a in
  let ata = mul at a in
  let atb = mat_vec at b in
  solve_spd ata atb

let pp fmt t =
  for i = 0 to t.r - 1 do
    for j = 0 to t.c - 1 do
      Format.fprintf fmt "%10.4g " (get t i j)
    done;
    Format.pp_print_newline fmt ()
  done
