(* The four xoshiro words live in 32 bytes and the spare normal in a
   float array: an [int64] or [float] kept in a mutable record field is
   boxed, so every draw would allocate.  Read through the unchecked
   primitives, the words stay unboxed within a draw.  [spare] has a
   second slot that {!gaussian} draws into. *)
type t = { state : Bytes.t; spare : Float.Array.t; mutable has_spare : bool }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: used only to expand the user seed into 256 bits of
   well-mixed state, as recommended by the xoshiro authors. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let state = Bytes.create 32 in
  set64 state 0 s0;
  set64 state 8 s1;
  set64 state 16 s2;
  set64 state 24 s3;
  { state; spare = Float.Array.make 2 0.0; has_spare = false }

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

let copy t =
  {
    state = Bytes.copy t.state;
    spare = Float.Array.copy t.spare;
    has_spare = t.has_spare;
  }

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let st = t.state in
  let s0 = get64 st 0 and s1 = get64 st 8 in
  let s2 = get64 st 16 and s3 = get64 st 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 st 0 s0;
  set64 st 8 s1;
  set64 st 16 (logxor s2 tmp);
  set64 st 24 (rotl s3 45);
  result

let split t n =
  if n <= 0 then invalid_arg "Rng.split: n <= 0";
  (* Each child state word comes from its own 64-bit parent draw mixed
     through one splitmix64 step, so children receive 256 independent
     parent bits.  (An earlier version funnelled the whole child state
     through a single Int64.to_int seed, silently dropping the top bit
     and collapsing the keyspace to 63 bits.) *)
  Array.init n (fun _ ->
      let word () = splitmix64 (ref (bits64 t)) in
      let s0 = word () in
      let s1 = word () in
      let s2 = word () in
      let s3 = word () in
      if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
        (* xoshiro forbids the all-zero state; unreachable in practice
           (probability 2^-256) but cheap to rule out. *)
        create ~seed:1
      else of_words s0 s1 s2 s3)

let[@inline] float t =
  (* 53 high bits scaled into [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling to avoid modulo bias: draw under the smallest
     all-ones mask covering [bound - 1] and reject overshoots.  The
     mask is grown as (2^k - 1) values directly — the earlier
     power-of-two loop [mask lsl 1] wrapped negative for bounds above
     2^61 and never terminated.  [grow] cannot overflow: it stops at
     max_int (all 62 value bits set), which covers every valid bound. *)
  let rec grow m = if m >= bound - 1 then m else grow ((m lsl 1) lor 1) in
  let mask = if bound = 1 then 0 else grow 1 in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (bits64 t) 0x7FFFFFFFFFFFFFFFL) land mask in
    if v < bound then v else draw ()
  in
  draw ()

(* Marsaglia polar method: the first value of each accepted pair goes
   to [out.(pos)], the second is kept as the spare for the next draw. *)
let polar_into t out pos =
  let accepted = ref false in
  while not !accepted do
    let u = (2.0 *. float t) -. 1.0 in
    let v = (2.0 *. float t) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if not (s >= 1.0 || s = 0.0) then begin
      let m = sqrt (-2.0 *. log s /. s) in
      Float.Array.unsafe_set t.spare 0 (v *. m);
      t.has_spare <- true;
      Float.Array.unsafe_set out pos (u *. m);
      accepted := true
    end
  done

let gaussians_into t out ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Float.Array.length out then
    invalid_arg "Rng.gaussians_into: range outside the array";
  for i = pos to pos + len - 1 do
    if t.has_spare then begin
      t.has_spare <- false;
      Float.Array.unsafe_set out i (Float.Array.unsafe_get t.spare 0)
    end
    else polar_into t out i
  done

let gaussian t =
  gaussians_into t t.spare ~pos:1 ~len:1;
  Float.Array.unsafe_get t.spare 1

let gaussian_mu_sigma t ~mu ~sigma =
  assert (sigma >= 0.0);
  mu +. (sigma *. gaussian t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
