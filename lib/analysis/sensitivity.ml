(* Certified forward-mode sensitivity analysis over sizing boxes.

   Every quantity is carried as a dual (v, d) of intervals: [v]
   encloses the quantity and [d] its derivative with respect to one
   scalar knob, for every design in the declared box.  The propagation
   below mirrors the concrete timing stack operation by operation —
   the same float expressions, in the same association order, as
   [Sta.run], [Ssta.analyse_stage], [Gd.of_nominal]/[Gd.add],
   [Clark.max_n] and the engine's [cdf0]/[sf0] — so that on a point
   box the value side reproduces the concrete floats bit for bit.
   That bit-exactness is what lets the dominance layer prune sizer
   moves while provably reproducing byte-identical sizer reports: a
   pruned move's concrete trial value lies inside an interval the
   pruner has already compared.

   Soundness at non-smooth points: the max junctions of STA, the
   Clark fold order (sorted by stage mean), the Clark degenerate
   branches, and the sigma = 0 CDF steps are all *decided* over the
   box or the result is flagged ambiguous.  Ambiguity decertifies the
   derivative (reported as the full line — trivially sound) while the
   value side stays a finite sound hull.  Note the interval arithmetic
   here is not outward-rounded: enclosures are exact up to one ulp per
   operation, which is why the finite-difference oracles compare with
   a small documented slack. *)

module I = Interval
module Net = Spv_circuit.Netlist
module Cell = Spv_circuit.Cell
module Sp = Spv_stats.Special
module G = Spv_stats.Gaussian
module Correlation = Spv_stats.Correlation
module Gd = Spv_process.Gate_delay
module Variation = Spv_process.Variation
module Tech = Spv_process.Tech
module Flipflop = Spv_process.Flipflop
module Spatial = Spv_process.Spatial
module Stage = Spv_core.Stage
module Pipeline = Spv_core.Pipeline
module Ctx = Spv_engine.Engine.Ctx

(* ---- interval duals -------------------------------------------------- *)

module Dual = struct
  type t = { v : I.t; d : I.t }

  exception Unbounded of string

  let iv lo hi = I.make ~lo ~hi

  (* Endpoint images of a monotone map can invert by an ulp near a
     flat extremum; order defensively rather than raise. *)
  let ordered a b = if a <= b then iv a b else iv b a
  let make ~v ~d = { v; d }
  let const x = { v = I.point x; d = I.point 0.0 }
  let var box = { v = box; d = I.point 1.0 }
  let v t = t.v
  let d t = t.d
  let isub a b = iv (I.lo a -. I.hi b) (I.hi a -. I.lo b)

  let idiv a b =
    if not (I.lo b > 0.0 || I.hi b < 0.0) then
      raise (Unbounded "division by an interval containing zero");
    let q1 = I.lo a /. I.lo b and q2 = I.lo a /. I.hi b in
    let q3 = I.hi a /. I.lo b and q4 = I.hi a /. I.hi b in
    if Float.is_nan q1 || Float.is_nan q2 || Float.is_nan q3 || Float.is_nan q4
    then raise (Unbounded "indeterminate quotient (inf/inf)");
    iv
      (Float.min (Float.min q1 q2) (Float.min q3 q4))
      (Float.max (Float.max q1 q2) (Float.max q3 q4))

  let add a b = { v = I.add a.v b.v; d = I.add a.d b.d }
  let sub a b = { v = isub a.v b.v; d = isub a.d b.d }

  let mul a b =
    { v = I.mul a.v b.v; d = I.add (I.mul a.v b.d) (I.mul b.v a.d) }

  let div a b =
    let v = idiv a.v b.v in
    let num = I.add (I.mul a.d b.v) (I.neg (I.mul a.v b.d)) in
    { v; d = idiv num (I.mul b.v b.v) }

  let scale a c =
    if not (Float.is_finite c) then invalid_arg "Dual.scale: non-finite";
    let k = I.point c in
    { v = I.mul a.v k; d = I.mul a.d k }

  let shift a c =
    if not (Float.is_finite c) then invalid_arg "Dual.shift: non-finite";
    { a with v = I.shift a.v c }

  let neg a = { v = I.neg a.v; d = I.neg a.d }

  let sqrt_ a =
    let vlo = I.lo a.v and vhi = I.hi a.v in
    if vlo < 0.0 then raise (Unbounded "sqrt of a possibly-negative interval");
    if vlo = 0.0 then
      if vhi = 0.0 && I.lo a.d = 0.0 && I.hi a.d = 0.0 then const 0.0
      else raise (Unbounded "sqrt derivative unbounded at zero")
    else
      let v = iv (sqrt vlo) (sqrt vhi) in
      { v; d = idiv a.d (iv (2.0 *. sqrt vlo) (2.0 *. sqrt vhi)) }

  let relu a =
    let vlo = I.lo a.v and vhi = I.hi a.v in
    let v = iv (Float.max vlo 0.0) (Float.max vhi 0.0) in
    let d =
      if vlo >= 0.0 then a.d
      else if vhi <= 0.0 then I.point 0.0
      else I.hull a.d (I.point 0.0)
    in
    { v; d }

  let clamp_pm1 a =
    let c x = Float.max (-1.0) (Float.min 1.0 x) in
    let vlo = I.lo a.v and vhi = I.hi a.v in
    let v = iv (c vlo) (c vhi) in
    let d =
      if vlo >= -1.0 && vhi <= 1.0 then a.d
      else if vlo >= 1.0 || vhi <= -1.0 then I.point 0.0
      else I.hull a.d (I.point 0.0)
    in
    { v; d }

  (* Range of the standard normal density over an argument interval:
     unimodal with peak at 0. *)
  let iphi x =
    let pl = Sp.phi (I.lo x) and ph = Sp.phi (I.hi x) in
    let top =
      if I.lo x <= 0.0 && I.hi x >= 0.0 then Sp.phi 0.0 else Float.max pl ph
    in
    iv (Float.min pl ph) top

  let big_phi a =
    { v = ordered (Sp.big_phi (I.lo a.v)) (Sp.big_phi (I.hi a.v));
      d = I.mul (iphi a.v) a.d }

  let upper_tail a =
    { v = ordered (Sp.upper_tail (I.hi a.v)) (Sp.upper_tail (I.lo a.v));
      d = I.mul (I.neg (iphi a.v)) a.d }

  (* phi itself, as a dual: phi'(x) = -x phi(x).  Hidden by the mli. *)
  let pdf_phi a =
    { v = iphi a.v; d = I.mul (I.neg (I.mul a.v (iphi a.v))) a.d }

  let hull a b = { v = I.hull a.v b.v; d = I.hull a.d b.d }
end

type param = Size of int | Factor of int

type enclosure = { value : I.t; deriv : I.t; certified : bool }

type stage_sens = {
  s_param : param;
  s_box : I.t;
  s_nominal : enclosure;
  s_mu : enclosure;
  s_sigma : enclosure;
}

let full_line = I.make ~lo:neg_infinity ~hi:infinity
let unit_iv = I.make ~lo:0.0 ~hi:1.0
let nonneg = I.make ~lo:0.0 ~hi:infinity

let enclose ~certified (x : Dual.t) =
  { value = Dual.v x;
    deriv = (if certified then Dual.d x else full_line);
    certified }

let decert_nonneg = { value = nonneg; deriv = full_line; certified = false }
let decert_unit = { value = unit_iv; deriv = full_line; certified = false }

(* ---- stage propagation ----------------------------------------------- *)

(* Per-node state of the interval STA/SSTA sweep.  [arr] is the
   arrival enclosure; [psi]/[pss]/[psr] accumulate the traced path's
   sigma components exactly as [Ssta.analyse_stage]'s Gd.add fold does
   (inter and sys linearly, rand by stepwise quadrature).  [nid] keeps
   the concrete node identity so that comparing a node with itself is
   always decided; it turns to -1 after an ambiguous merge. *)
type acc = {
  nid : int;
  arr : Dual.t;
  psi : Dual.t;
  pss : Dual.t;
  psr : Dual.t;
  amb : bool;
}

let pi_acc nid =
  let z = Dual.const 0.0 in
  { nid; arr = z; psi = z; pss = z; psr = z; amb = false }

(* One step of the concrete first-index-wins argmax
   ([if arrival f > arrival best then switch]), lifted to intervals:
   switch only when the challenger is strictly larger everywhere, keep
   only when it is no larger anywhere (which covers exact ties — the
   concrete fold keeps the earlier operand), and otherwise merge: the
   winner is unknown, so hull the path accumulators, take the
   pointwise max for the arrival value, and mark the path ambiguous. *)
let join best f =
  if f.nid >= 0 && f.nid = best.nid then best
  else if I.lo (Dual.v f.arr) > I.hi (Dual.v best.arr) then f
  else if I.hi (Dual.v f.arr) <= I.lo (Dual.v best.arr) then best
  else
    {
      nid = -1;
      arr =
        Dual.make
          ~v:(I.max2 (Dual.v best.arr) (Dual.v f.arr))
          ~d:(I.hull (Dual.d best.arr) (Dual.d f.arr));
      psi = Dual.hull best.psi f.psi;
      pss = Dual.hull best.pss f.pss;
      psr = Dual.hull best.psr f.psr;
      amb = true;
    }

type stage_duals = {
  sd_sta : Dual.t;  (* Sta.run delay (pre-flip-flop) *)
  sd_mu : Dual.t;  (* SSTA total nominal *)
  sd_si : Dual.t;
  sd_ss : Dual.t;
  sd_sigma : Dual.t;  (* Gd.total_sigma of the total *)
  sd_amb : bool;  (* critical path not decided over the box *)
}

let propagate ?ff (tech : Tech.t) net ~size_of ~factor_of =
  (* The netlist's load formula over duals: fanout input caps, then
     the primary-output load. *)
  let loads =
    Array.init (Net.n_nodes net) (fun i ->
        Net.fold_load net i (Dual.const 0.0) ~po:Dual.shift ~cap:(fun cap j ->
            match Net.node net j with
            | Net.Gate { kind; _ } ->
                Dual.add cap (Dual.scale (size_of j) (Cell.logical_effort kind))
            | Net.Primary_input _ -> cap))
  in
  let rel_i = Variation.rel_sigma_inter tech in
  let rel_s = Variation.rel_sigma_sys tech in
  let rand_c = Tech.delay_sensitivity_vth tech *. tech.Tech.sigma_vth_rand in
  let accs =
    Spv_circuit.Sta.forward
      (module struct
        type t = acc

        let input i = pi_acc i
        let start best = best
        let join = join

        let gate i best =
          match Net.node net i with
          | Net.Primary_input _ -> assert false
          | Net.Gate { kind; _ } ->
              let size = size_of i in
              let gd =
                Dual.scale
                  (Dual.shift (Dual.div loads.(i) size) (Cell.parasitic kind))
                  tech.Tech.tau
              in
              let gd =
                match factor_of i with None -> gd | Some f -> Dual.mul gd f
              in
              let arr = Dual.add best.arr gd in
              let psi = Dual.add best.psi (Dual.scale gd rel_i) in
              let pss = Dual.add best.pss (Dual.scale gd rel_s) in
              let srg =
                Dual.mul gd (Dual.div (Dual.const rand_c) (Dual.sqrt_ size))
              in
              let psr =
                Dual.sqrt_
                  (Dual.add (Dual.mul best.psr best.psr) (Dual.mul srg srg))
              in
              { nid = i; arr; psi; pss; psr; amb = best.amb }
      end)
      net
  in
  let outs = Net.outputs net in
  let b = ref accs.(outs.(0)) in
  Array.iter (fun o -> b := join !b accs.(o)) outs;
  let bo = !b in
  let mu_t, si_t, ss_t, sr_t =
    match ff with
    | None -> (bo.arr, bo.psi, bo.pss, bo.psr)
    | Some ff ->
        let ov = Flipflop.overhead ff in
        ( Dual.shift bo.arr ov.Gd.nominal,
          Dual.shift bo.psi ov.Gd.sigma_inter,
          Dual.shift bo.pss ov.Gd.sigma_sys,
          Dual.sqrt_
            (Dual.shift
               (Dual.mul bo.psr bo.psr)
               (ov.Gd.sigma_rand *. ov.Gd.sigma_rand)) )
  in
  let sigma_t =
    Dual.sqrt_
      (Dual.add
         (Dual.add (Dual.mul si_t si_t) (Dual.mul ss_t ss_t))
         (Dual.mul sr_t sr_t))
  in
  {
    sd_sta = bo.arr;
    sd_mu = mu_t;
    sd_si = si_t;
    sd_ss = ss_t;
    sd_sigma = sigma_t;
    sd_amb = bo.amb;
  }

(* ---- knob plumbing --------------------------------------------------- *)

let knob_node = function Size g -> g | Factor g -> g

let check_param net ~param ~box ~where =
  let g = knob_node param in
  if g < 0 || g >= Net.n_nodes net || not (Net.is_gate net g) then
    invalid_arg (where ^ ": the knob must name a gate");
  if not (I.is_finite box) then invalid_arg (where ^ ": box must be finite");
  match param with
  | Size _ ->
      if I.lo box <= 0.0 then
        invalid_arg (where ^ ": size box must be strictly positive");
      if not (I.contains box (Net.size net g)) then
        invalid_arg (where ^ ": box must contain the gate's current size")
  | Factor _ ->
      if not (I.contains box 1.0) then
        invalid_arg (where ^ ": box must contain the nominal factor 1.0")

let knob_funs net ~param ~box =
  let g = knob_node param in
  match param with
  | Size _ ->
      ( (fun i -> if i = g then Dual.var box else Dual.const (Net.size net i)),
        fun _ -> None )
  | Factor _ ->
      ( (fun i -> Dual.const (Net.size net i)),
        fun i -> if i = g then Some (Dual.var box) else None )

let sens_of_duals ~param ~box sd =
  {
    s_param = param;
    s_box = box;
    s_nominal = enclose ~certified:true sd.sd_sta;
    s_mu = enclose ~certified:true sd.sd_mu;
    s_sigma = enclose ~certified:(not sd.sd_amb) sd.sd_sigma;
  }

let stage ?ff tech net ~param ~box =
  check_param net ~param ~box ~where:"Sensitivity.stage";
  let size_of, factor_of = knob_funs net ~param ~box in
  match propagate ?ff tech net ~size_of ~factor_of with
  | sd -> sens_of_duals ~param ~box sd
  | exception Dual.Unbounded _ ->
      {
        s_param = param;
        s_box = box;
        s_nominal = decert_nonneg;
        s_mu = decert_nonneg;
        s_sigma = decert_nonneg;
      }

let stat ~z s =
  let zc = I.point z in
  let value = I.add s.s_mu.value (I.mul zc s.s_sigma.value) in
  let certified = s.s_mu.certified && s.s_sigma.certified in
  let deriv =
    if certified then I.add s.s_mu.deriv (I.mul zc s.s_sigma.deriv)
    else full_line
  in
  { value; deriv; certified }

type sign = Increasing | Decreasing

let monotone_sign e =
  if not e.certified then None
  else if I.lo e.deriv > 0.0 then Some Increasing
  else if I.hi e.deriv < 0.0 then Some Decreasing
  else None

(* ---- memoisation ----------------------------------------------------- *)

module Cache = struct
  (* Looked up only through [Hashtbl]'s structural equality, never
     projected. *)
  type key = {
    k_stage : int;
    k_rev : int;  (* Engine.Ctx.stage_revision at lookup time *)
    k_param : int;  (* 2*node (Size) / 2*node+1 (Factor) *)
    k_lo : int64;  (* box endpoints, exact bit patterns *)
    k_hi : int64;
  }
  [@@warning "-69"]

  type t = {
    tbl : (key, stage_duals option) Hashtbl.t;
    mutable n_hits : int;
    mutable n_misses : int;
  }

  let create () = { tbl = Hashtbl.create 64; n_hits = 0; n_misses = 0 }
  let hits t = t.n_hits
  let misses t = t.n_misses
end

let param_tag = function Size g -> 2 * g | Factor g -> (2 * g) + 1

let ctx_stage_duals ?cache ctx ~stage:st ~param ~box ~where =
  if not (Ctx.gate_level ctx) then
    invalid_arg (where ^ ": gate-level contexts only");
  let net = Ctx.netlist ctx st in
  check_param net ~param ~box ~where;
  let compute () =
    let size_of, factor_of = knob_funs net ~param ~box in
    match
      propagate ?ff:(Ctx.flipflop ctx) (Ctx.tech ctx) net ~size_of ~factor_of
    with
    | sd -> Some sd
    | exception Dual.Unbounded _ -> None
  in
  match cache with
  | None -> compute ()
  | Some c -> (
      let key =
        Cache.
          {
            k_stage = st;
            k_rev = Ctx.stage_revision ctx st;
            k_param = param_tag param;
            k_lo = Int64.bits_of_float (I.lo box);
            k_hi = Int64.bits_of_float (I.hi box);
          }
      in
      match Hashtbl.find_opt c.Cache.tbl key with
      | Some e ->
          c.Cache.n_hits <- c.Cache.n_hits + 1;
          e
      | None ->
          c.Cache.n_misses <- c.Cache.n_misses + 1;
          let e = compute () in
          Hashtbl.add c.Cache.tbl key e;
          e)

let ctx_stage ?cache ctx ~stage:st ~param ~box =
  match ctx_stage_duals ?cache ctx ~stage:st ~param ~box
          ~where:"Sensitivity.ctx_stage"
  with
  | Some sd -> sens_of_duals ~param ~box sd
  | None ->
      {
        s_param = param;
        s_box = box;
        s_nominal = decert_nonneg;
        s_mu = decert_nonneg;
        s_sigma = decert_nonneg;
      }

(* ---- yield through the Clark fold ------------------------------------ *)

type model = Clark | Independent_product

exception Undecided

type g_dual = { gmu : Dual.t; gsig : Dual.t }
type comp_dual = { dsi : Dual.t; dss : Dual.t; dsig : Dual.t }

let comp_of_gd (gd : Gd.t) =
  {
    dsi = Dual.const gd.Gd.sigma_inter;
    dss = Dual.const gd.Gd.sigma_sys;
    dsig = Dual.const (Gd.total_sigma gd);
  }

(* Mirror of [Gd.correlation].  The sigma = 0 short-circuit must be
   decided over the box; a sigma interval touching zero without being
   identically zero cannot be certified. *)
let gd_correlation_dual a b ~sys_rho =
  let zero c = I.hi (Dual.v c.dsig) = 0.0 in
  let positive c = I.lo (Dual.v c.dsig) > 0.0 in
  if zero a || zero b then Dual.const 0.0
  else if not (positive a && positive b) then
    raise (Dual.Unbounded "correlation: sigma sign undecided over the box")
  else
    let cov =
      Dual.add (Dual.mul a.dsi b.dsi)
        (Dual.mul (Dual.scale a.dss sys_rho) b.dss)
    in
    Dual.clamp_pm1 (Dual.div cov (Dual.mul a.dsig b.dsig))

let degenerate_a = 1e-12 (* Clark.degenerate_a *)

type m_dual = { m_mean : Dual.t; m_var : Dual.t; m_alpha : Dual.t }

let hull_m a b =
  {
    m_mean = Dual.hull a.m_mean b.m_mean;
    m_var = Dual.hull a.m_var b.m_var;
    m_alpha = Dual.hull a.m_alpha b.m_alpha;
  }

(* Clark degenerate branch: the max is whichever input has the larger
   mean; the concrete tie ([mu1 >= mu2]) goes to the first input. *)
let degenerate_m ~amb g1 g2 =
  let d1 () =
    { m_mean = g1.gmu; m_var = Dual.mul g1.gsig g1.gsig;
      m_alpha = Dual.const 0.0 }
  in
  let d2 () =
    { m_mean = g2.gmu; m_var = Dual.mul g2.gsig g2.gsig;
      m_alpha = Dual.const 0.0 }
  in
  if I.lo (Dual.v g1.gmu) >= I.hi (Dual.v g2.gmu) then d1 ()
  else if I.hi (Dual.v g1.gmu) < I.lo (Dual.v g2.gmu) then d2 ()
  else begin
    amb := true;
    hull_m (d1 ()) (d2 ())
  end

let normal_m g1 g2 ~a =
  let mu1 = g1.gmu and s1 = g1.gsig in
  let mu2 = g2.gmu and s2 = g2.gsig in
  let alpha = Dual.div (Dual.sub mu1 mu2) a in
  let cdf = Dual.big_phi alpha in
  let cdf' = Dual.big_phi (Dual.neg alpha) in
  let pdf = Dual.pdf_phi alpha in
  let mean =
    Dual.add (Dual.add (Dual.mul mu1 cdf) (Dual.mul mu2 cdf')) (Dual.mul a pdf)
  in
  let second =
    Dual.add
      (Dual.add
         (Dual.mul (Dual.add (Dual.mul mu1 mu1) (Dual.mul s1 s1)) cdf)
         (Dual.mul (Dual.add (Dual.mul mu2 mu2) (Dual.mul s2 s2)) cdf'))
      (Dual.mul (Dual.mul (Dual.add mu1 mu2) a) pdf)
  in
  let variance = Dual.relu (Dual.sub second (Dual.mul mean mean)) in
  { m_mean = mean; m_var = variance; m_alpha = alpha }

let max2_moments_dual ~amb g1 g2 ~rho =
  let s1 = g1.gsig and s2 = g2.gsig in
  let a2 =
    Dual.sub
      (Dual.add (Dual.mul s1 s1) (Dual.mul s2 s2))
      (Dual.mul (Dual.mul (Dual.scale rho 2.0) s1) s2)
  in
  let a2c = Dual.relu a2 in
  let sa_lo = sqrt (I.lo (Dual.v a2c)) and sa_hi = sqrt (I.hi (Dual.v a2c)) in
  if sa_hi < degenerate_a then degenerate_m ~amb g1 g2
  else if sa_lo >= degenerate_a then normal_m g1 g2 ~a:(Dual.sqrt_ a2c)
  else begin
    (* The branch [a < degenerate_a] can flip inside the box: hull a
       sound evaluation of each side. *)
    amb := true;
    let v_lo = degenerate_a *. degenerate_a in
    let v_hi = Float.max (I.hi (Dual.v a2c)) v_lo in
    let a_cl =
      Dual.sqrt_ (Dual.make ~v:(I.make ~lo:v_lo ~hi:v_hi) ~d:(Dual.d a2c))
    in
    hull_m (normal_m g1 g2 ~a:a_cl) (degenerate_m ~amb g1 g2)
  end

let correlation_with_max_dual ~amb ~s1 ~s2 ~r1 ~r2 m =
  let vv = Dual.v m.m_var in
  let sd_lo = sqrt (I.lo vv) and sd_hi = sqrt (I.hi vv) in
  let formula sd =
    let cdf = Dual.big_phi m.m_alpha in
    let cdf' = Dual.big_phi (Dual.neg m.m_alpha) in
    Dual.clamp_pm1
      (Dual.div
         (Dual.add
            (Dual.mul (Dual.mul s1 r1) cdf)
            (Dual.mul (Dual.mul s2 r2) cdf'))
         sd)
  in
  if sd_hi < degenerate_a then Dual.const 0.0
  else if sd_lo >= degenerate_a then formula (Dual.sqrt_ m.m_var)
  else begin
    amb := true;
    let v_lo = degenerate_a *. degenerate_a in
    let v_hi = Float.max (I.hi vv) v_lo in
    Dual.hull (Dual.const 0.0)
      (formula
         (Dual.sqrt_ (Dual.make ~v:(I.make ~lo:v_lo ~hi:v_hi) ~d:(Dual.d m.m_var))))
  end

(* Mirrors the engine's [cdf0] (step below sigma = 0, Gaussian CDF
   otherwise) — also exactly the per-stage factor of
   [Yield.independent_exact]. *)
let cdf0_dual ~amb g ~t =
  let sv = Dual.v g.gsig in
  if I.hi sv = 0.0 then begin
    let mv = Dual.v g.gmu in
    if I.hi mv <= t then Dual.const 1.0
    else if I.lo mv > t then Dual.const 0.0
    else begin
      amb := true;
      Dual.make ~v:unit_iv ~d:(I.point 0.0)
    end
  end
  else if I.lo sv > 0.0 then
    Dual.big_phi (Dual.div (Dual.sub (Dual.const t) g.gmu) g.gsig)
  else raise (Dual.Unbounded "sigma sign undecided at the CDF")

(* Dynamic consistency guard: the differentiated stage's cached
   concrete moments must lie inside the propagated enclosures (they
   do whenever the context reflects the netlist's current sizes;
   otherwise certification would be built on a model the concrete
   estimator is not using). *)
let guard_moments p ~stage:s ~sd =
  let g = Stage.gaussian (Pipeline.stage p s) in
  if
    not
      (I.contains (Dual.v sd.sd_mu) (G.mu g)
      && I.contains (Dual.v sd.sd_sigma) (G.sigma g))
  then raise Undecided

let clark_fold_dual ctx ~stage:s ~sd =
  let p = Ctx.pipeline ctx in
  let n = Pipeline.n_stages p in
  guard_moments p ~stage:s ~sd;
  let amb = ref sd.sd_amb in
  let mus = Array.init n (fun j -> G.mu (Stage.gaussian (Pipeline.stage p j))) in
  (* The Clark fold visits stages sorted by mean.  The permutation is
     constant over the box only when the differentiated stage's mean
     interval is strictly disjoint from every other stage's mean. *)
  let m_iv = Dual.v sd.sd_mu in
  for j = 0 to n - 1 do
    if j <> s && not (I.hi m_iv < mus.(j) || I.lo m_iv > mus.(j)) then
      raise Undecided
  done;
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare mus.(i) mus.(j)) idx;
  let gdual j =
    if j = s then { gmu = sd.sd_mu; gsig = sd.sd_sigma }
    else
      let g = Stage.gaussian (Pipeline.stage p j) in
      { gmu = Dual.const (G.mu g); gsig = Dual.const (G.sigma g) }
  in
  let corr = Pipeline.correlation p in
  let corr_length = (Ctx.tech ctx).Tech.corr_length in
  let comp_of k =
    if k = s then { dsi = sd.sd_si; dss = sd.sd_ss; dsig = sd.sd_sigma }
    else comp_of_gd (Pipeline.stage p k).Stage.delay
  in
  let corr_d i j =
    if i = j then Dual.const 1.0
    else if i = s || j = s then begin
      (* [Correlation.of_function] stores f(min, max); mirror the same
         argument order so point boxes reproduce the matrix bits. *)
      let a = min i j and b = max i j in
      let sys_rho =
        exp
          (-.Spatial.distance (Pipeline.stage p a).Stage.position
              (Pipeline.stage p b).Stage.position
           /. corr_length)
      in
      gd_correlation_dual (comp_of a) (comp_of b) ~sys_rho
    end
    else Dual.const (Correlation.get corr i j)
  in
  let current = ref (gdual idx.(0)) in
  let cwc = Array.init n (fun k -> corr_d idx.(0) idx.(k)) in
  for step = 1 to n - 1 do
    let j = idx.(step) in
    let g2 = gdual j in
    let rho = cwc.(step) in
    let m = max2_moments_dual ~amb !current g2 ~rho in
    let s1 = !current.gsig and s2 = g2.gsig in
    for k = step + 1 to n - 1 do
      cwc.(k) <-
        correlation_with_max_dual ~amb ~s1 ~s2 ~r1:cwc.(k)
          ~r2:(corr_d j idx.(k)) m
    done;
    current := { gmu = m.m_mean; gsig = Dual.sqrt_ m.m_var }
  done;
  (!current, amb)

let independent_fold_dual ctx ~stage:s ~sd ~t_target =
  let p = Ctx.pipeline ctx in
  let n = Pipeline.n_stages p in
  guard_moments p ~stage:s ~sd;
  let amb = ref sd.sd_amb in
  let acc = ref (Dual.const 1.0) in
  for j = 0 to n - 1 do
    let g =
      if j = s then { gmu = sd.sd_mu; gsig = sd.sd_sigma }
      else
        let g = Stage.gaussian (Pipeline.stage p j) in
        { gmu = Dual.const (G.mu g); gsig = Dual.const (G.sigma g) }
    in
    acc := Dual.mul !acc (cdf0_dual ~amb g ~t:t_target)
  done;
  (!acc, amb)

let clamp_unit ivl =
  let lo = Float.max 0.0 (I.lo ivl) and hi = Float.min 1.0 (I.hi ivl) in
  if lo <= hi then I.make ~lo ~hi else unit_iv

let yield_enclosure ctx ~model ~stage:s ~sd ~t_target =
  let y, amb =
    match model with
    | Independent_product -> independent_fold_dual ctx ~stage:s ~sd ~t_target
    | Clark ->
        let dist, amb = clark_fold_dual ctx ~stage:s ~sd in
        (cdf0_dual ~amb dist ~t:t_target, amb)
  in
  let certified = not !amb in
  {
    value = clamp_unit (Dual.v y);
    deriv = (if certified then Dual.d y else full_line);
    certified;
  }

let check_t_target ~where t =
  if not (Float.is_finite t) then invalid_arg (where ^ ": non-finite t_target")

let ctx_yield ?cache ctx ~model ~stage:s ~param ~box ~t_target =
  let where = "Sensitivity.ctx_yield" in
  check_t_target ~where t_target;
  match ctx_stage_duals ?cache ctx ~stage:s ~param ~box ~where with
  | None -> decert_unit
  | Some sd -> (
      try yield_enclosure ctx ~model ~stage:s ~sd ~t_target with
      | Dual.Unbounded _ | Undecided -> decert_unit)

let yield_upper_bound_over_box ctx ~model ~stage:s ~lo ~hi ~t_target =
  let where = "Sensitivity.yield_upper_bound_over_box" in
  check_t_target ~where t_target;
  if not (Ctx.gate_level ctx) then
    invalid_arg (where ^ ": gate-level contexts only");
  if (not (Float.is_finite lo && Float.is_finite hi)) || lo <= 0.0 || lo > hi
  then invalid_arg (where ^ ": bad size range");
  let net = Ctx.netlist ctx s in
  let box = I.make ~lo ~hi in
  let size_of _ = Dual.make ~v:box ~d:(I.point 0.0) in
  match
    propagate ?ff:(Ctx.flipflop ctx) (Ctx.tech ctx) net ~size_of
      ~factor_of:(fun _ -> None)
  with
  | exception Dual.Unbounded _ -> None
  | sd -> (
      (* Ambiguity (a path switch inside the box) only decertifies the
         derivative; the value hulls remain sound, so the upper bound
         survives it.  Undecided fold order or degenerate straddles
         abort: the value would then depend on a permutation we cannot
         fix. *)
      try
        let e = yield_enclosure ctx ~model ~stage:s ~sd ~t_target in
        Some (I.hi e.value)
      with Dual.Unbounded _ | Undecided -> None)
