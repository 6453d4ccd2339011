module Engine = Spv_engine.Engine
module Mvn = Spv_stats.Mvn
module Matrix = Spv_stats.Matrix
module Special = Spv_stats.Special
module Netlist = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta

(* Failure-cone criticality analysis.

   Everything here is derived from the affine forms of {!Affine_sta} —
   the exact models of what the engine's samplers draw — so every
   probability below is a guaranteed enclosure, not an estimate:

   - stage criticality: {stage s sets the pipeline delay}
     = intersection over j <> s of {X_j <= X_s}.  Both bounds are
     exact Gaussian statements, because every pairwise difference of
     model forms is purely affine (no chord remainder): the lower
     bound is the union bound on the complement,
     1 - sum_j P{X_j > X_s}, the upper bound is P{X_c <= X_s} for the
     reference (largest-mean other) stage c.  Chord-max forms are
     deliberately kept out of these events: at k = 6 the relu chord
     overshoots the true max by O(k sigma), which would make any
     max-form-based lower bound vacuous;

   - gate criticality (within a stage): the stage delay is exactly
     the max over input-to-output gate paths of the path's delay sum,
     and each path sum is an affine form with no chord remainder.  So
     when the stage has at most [path_cap] paths, the lower bound is
     again a union bound over near-exact events: P{g critical}
     >= 1 - sum over paths q avoiding g of P{sum_q > path_g}, with
     path_g the best nominal path through g.  Stages with more paths
     fall back to reading the chord-max stage form against path_g —
     sound, but usually vacuous at k = 6 (see the stage note above).
     The upper bound is the probability that the chord-max
     through-form of g reaches the exact form of the nominal critical
     path, intersected with {!Static_criticality}'s corner proof: a
     gate proven never critical inside the +-k box can only be
     critical on the escape mass of the box, so its upper bound is
     clamped to the stage form's escape budget. *)

let check_k ~where k =
  if not (Float.is_finite k && k > 0.0) then
    invalid_arg (where ^ ": k must be finite and positive")

let default_threshold = 0.05

(* ---- stage-level criticality (model forms, Factor basis) ------------- *)

type stage_crit = {
  sc_stage : int;
  sc_crit : Interval.t;
  sc_depth : float option;
}

let prob_interval iv =
  Interval.make
    ~lo:(Float.max 0.0 (Interval.lo iv))
    ~hi:(Float.min 1.0 (Interval.hi iv))

(* Cancellation floor for a difference of two forms: anything below
   this in the difference is floating-point dust from the subtraction,
   not model content (structurally equal sums composed in different
   association order cancel to ~ulp-sized coefficients, never to
   exactly zero). *)
let dust_eps a b =
  let scale f = Float.abs (Affine.center f) +. Affine.sigma f in
  1e-9 *. Float.max 1.0 (Float.max (scale a) (scale b))

(* ---- stage criticality kernel ---------------------------------------

   The stage model forms are X_s = mu_s + sum_k L_sk z_k over the
   stage MVN's Cholesky factor L, so every pairwise difference
   X_j - X_s is the exact Gaussian with mean mu_j - mu_s and variance
   sum_k (L_jk - L_sk)^2.  The kernel reads the means and the factor in
   place and sums that variance over ascending k up to max(j, s): the
   factor is lower triangular, and a zero term never changes a sum
   that starts at +0.0.  That is the arithmetic [Affine.sub] and
   [Affine.sigma] perform on the model forms, so the bounds keep their
   bits, and nothing is allocated: a float would be boxed per pair
   otherwise (DESIGN §3b). *)

type crit_scratch = {
  lower : Float.Array.t;  (** per stage: criticality lower bound *)
  upper : Float.Array.t;  (** per stage: criticality upper bound *)
  scale : Float.Array.t;  (** per stage: |mu_s| + sigma_s, for [dust_eps] *)
  cell : Float.Array.t;  (** one Phi argument, evaluated in place *)
}

let crit_scratch n =
  {
    lower = Float.Array.make n 0.0;
    upper = Float.Array.make n 0.0;
    scale = Float.Array.make n 0.0;
    cell = Float.Array.make 1 0.0;
  }

(* P{X_j > X_s}: Phi(mu / sigma) of the difference, or the step
   function when sigma is within the cancellation floor of
   [dust_eps] (tied or proportional stages), where Phi of two dust
   quantities would be garbage. *)
let[@inline] prob_exceeds w l mus ~n j s =
  let rj = j * n and rs = s * n in
  let var = ref 0.0 in
  for k = 0 to Int.max j s do
    let d = Array.unsafe_get l (rj + k) -. Array.unsafe_get l (rs + k) in
    var := !var +. (d *. d)
  done;
  let mu = Array.unsafe_get mus j -. Array.unsafe_get mus s in
  let sigma = sqrt !var in
  let eps =
    1e-9
    *. Float.max 1.0
         (Float.max
            (Float.Array.unsafe_get w.scale j)
            (Float.Array.unsafe_get w.scale s))
  in
  if sigma > eps then begin
    Float.Array.unsafe_set w.cell 0 (mu /. sigma);
    Special.big_phi_into w.cell ~pos:0 ~len:1;
    Float.Array.unsafe_get w.cell 0
  end
  else if mu > eps then 1.0
  else 0.0

(* Criticality bounds of every stage into [w.lower] / [w.upper]: below,
   the union bound 1 - sum_{j <> s} P{X_j > X_s} (clamped at 0);
   above, 1 - P{X_c > X_s} for the reference stage c, the largest-mean
   other stage (ties to the lower index).  The union sum runs over
   ascending j and stops once it reaches 1: further terms only grow it,
   so the clamped bound is 0 either way.  Raises [Invalid_argument] on
   a NaN mean or factor entry, as building the model forms does. *)
let stage_bounds_into mvn w =
  let n = Mvn.dim mvn in
  let l = Matrix.data (Mvn.cholesky mvn) and mus = Mvn.means mvn in
  for s = 0 to n - 1 do
    let m = Array.unsafe_get mus s in
    if Float.is_nan m then invalid_arg "Cones: NaN stage mean";
    let var = ref 0.0 in
    for k = 0 to s do
      let c = Array.unsafe_get l ((s * n) + k) in
      if Float.is_nan c then invalid_arg "Cones: NaN Cholesky entry";
      var := !var +. (c *. c)
    done;
    Float.Array.unsafe_set w.scale s (Float.abs m +. sqrt !var)
  done;
  (* Reference stage: largest mean, lowest index on ties; for the
     reference itself, the runner-up. *)
  let best = ref 0 in
  for i = 1 to n - 1 do
    if Array.unsafe_get mus i > Array.unsafe_get mus !best then best := i
  done;
  let best = !best in
  let second = ref (if best = 0 && n > 1 then 1 else 0) in
  for i = 0 to n - 1 do
    if i <> best && Array.unsafe_get mus i > Array.unsafe_get mus !second then
      second := i
  done;
  let second = if n > 1 then !second else best in
  for s = 0 to n - 1 do
    if n = 1 then begin
      Float.Array.unsafe_set w.lower s 1.0;
      Float.Array.unsafe_set w.upper s 1.0
    end
    else begin
      let miss = ref 0.0 and j = ref 0 in
      while !j < n && !miss < 1.0 do
        if !j <> s then miss := !miss +. prob_exceeds w l mus ~n !j s;
        incr j
      done;
      Float.Array.unsafe_set w.lower s (Float.max 0.0 (1.0 -. !miss));
      let c = if s = best then second else best in
      Float.Array.unsafe_set w.upper s (1.0 -. prob_exceeds w l mus ~n c s)
    end
  done

let stage_criticalities mvn ~t_target =
  let n = Mvn.dim mvn in
  let w = crit_scratch n in
  stage_bounds_into mvn w;
  Array.init n (fun s ->
      let lower = Float.Array.get w.lower s
      and upper = Float.Array.get w.upper s in
      let depth =
        match t_target with
        | None -> None
        | Some t ->
            let g = Mvn.marginal mvn s in
            let sigma = Spv_stats.Gaussian.sigma g in
            if sigma > 0.0 then
              Some ((t -. Spv_stats.Gaussian.mu g) /. sigma)
            else None
      in
      {
        sc_stage = s;
        sc_crit = Interval.make ~lo:(Float.min lower upper) ~hi:upper;
        sc_depth = depth;
      })

(* ---- gate-level criticality (one stage) ------------------------------ *)

(* Keeps the whole DAG of forms of Affine_sta.stage_forms: forward
   arrival forms, backward continuation ("down") forms, and the exact
   affine sums along the best *nominal* path through each gate. *)
type stage_gates = {
  sg_bounds : Interval.t array;  (** per node; [0,0] for inputs and
                                     gates reaching no output *)
  sg_reaches : bool array;  (** reaches a primary output *)
  sg_escape : float;  (** escape budget of the stage's chord-max form *)
  sg_static : Static_criticality.t;  (** the corner proof behind the clamp *)
}

(* Stages with at most this many input-to-output gate paths get the
   tight path-union gate criticality lower bound; larger stages fall
   back to the (usually vacuous) chord-max bound. *)
let path_cap = 1024

(* Backward state of node [node]: the chord-max continuation [form]
   over its [cands] (one per output-reaching consumer, plus 0 at an
   output) and the exact sum along its best nominal continuation. *)
type continuation = {
  node : int;
  cands : Affine.t list;
  path : Affine.t option;
  form : Affine.t;
}

let gate_criticalities ~k ctx ~sys_row ~stage =
  let tech = Engine.Ctx.tech ctx in
  let net = Engine.Ctx.netlist ctx stage in
  let nominal = Engine.Ctx.nominal_sta ctx stage in
  let n = Netlist.n_nodes net in
  let zero = Affine.const 0.0 in
  let gate_form, arrival = Affine_sta.stage_forms ~k ctx ~sys_row ~stage in
  (* Exact affine sum along the best nominal input-to-node path: each
     gate extends the path of its latest-arriving fanin (first wins),
     or starts afresh behind a primary input. *)
  let up_path =
    Array.map snd
    @@ Sta.forward
      (module struct
        type t = int * Affine.t

        let input i = (i, zero)
        let start best = best

        let join ((b, _) as best) ((f, _) as cand) =
          if nominal.Sta.arrival.(f) > nominal.Sta.arrival.(b) then cand
          else best

        let gate i (p, path) =
          let base = if nominal.Sta.arrival.(p) > 0.0 then path else zero in
          (i, Affine.add base gate_form.(i))
      end)
      net
  in
  let outputs = Netlist.outputs net in
  let d_form = Affine.max_many ~k (Array.map (fun o -> arrival.(o)) outputs) in
  (* Backward: the longest nominal continuation and output
     reachability, then the chord-max continuation forms and the exact
     affine sum along the nominal best continuation — the first
     consumer, in fanout order, that attains [down_nom]. *)
  let down_nom = Sta.down net nominal.Sta.gate_delays in
  let reaches = Array.map (fun d -> d > neg_infinity) down_nom in
  let cont =
    Sta.backward
      (module struct
        type t = continuation

        let seed i =
          let out = Netlist.is_output net i in
          { node = i; cands = (if out then [ zero ] else []); path = None;
            form = zero }

        let join acc g v =
          if not reaches.(g) then acc
          else
            let via = nominal.Sta.gate_delays.(g) +. down_nom.(g) in
            let through form = Affine.add gate_form.(g) form in
            let path =
              match acc.path with
              | None when via = down_nom.(acc.node) ->
                  Some (through (Option.value v.path ~default:zero))
              | p -> p
            in
            { acc with cands = through v.form :: acc.cands; path }

        let finish _ acc =
          match acc.cands with
          | [] -> acc
          | cs -> { acc with form = Affine.max_many ~k (Array.of_list cs) }
      end)
      net
  in
  let down i = cont.(i).form in
  let down_path i = Option.value cont.(i).path ~default:zero in
  (* Exact affine form of the nominal critical path — the upper
     bound's reference: every critical gate's through-value reaches at
     least this path's length. *)
  let ref_path =
    List.fold_left
      (fun acc g -> Affine.add acc gate_form.(g))
      zero nominal.Sta.critical_path
  in
  let escape = Affine.escape_probability ~k d_form in
  let static = Static_criticality.analyse ~k tech net in
  (* Path enumeration for the union-bound lower (see the module note):
     a full path starts at a gate with no gate fanin and ends at an
     output gate.  Positive gate delays mean the stage max is always
     attained on a full path, so the enumeration covers the max
     exactly.  Counts saturate at [path_cap + 1]. *)
  let paths =
    let sat a b = if a + b > path_cap + 1 then path_cap + 1 else a + b in
    (* Paths into each node: inputs count 0, a gate behind inputs only
       starts one. *)
    let count =
      Sta.forward
        (module struct
          type t = int

          let input _ = 0
          let start c = sat 0 c
          let join = sat
          let gate _ c = if c = 0 then 1 else c
        end)
        net
    in
    let total =
      Array.fold_left
        (fun acc o -> if Netlist.is_gate net o then sat acc count.(o) else acc)
        0 outputs
    in
    if total > path_cap then None
    else begin
      let acc = ref [] in
      (* Suffix enumeration from each output backward over gate fanins. *)
      let rec go suffix i =
        let suffix = i :: suffix in
        let gate_fanin =
          match Netlist.node net i with
          | Netlist.Gate { fanin; _ } ->
              Array.to_list
                (Array.of_seq
                   (Seq.filter (Netlist.is_gate net) (Array.to_seq fanin)))
          | Netlist.Primary_input _ -> []
        in
        match gate_fanin with
        | [] ->
            let form =
              List.fold_left
                (fun f g -> Affine.add f gate_form.(g))
                (Affine.const 0.0) suffix
            in
            let members = Array.make n false in
            List.iter (fun g -> members.(g) <- true) suffix;
            acc := (form, members) :: !acc
        | fs -> List.iter (go suffix) fs
      in
      Array.iter (fun o -> if Netlist.is_gate net o then go [] o) outputs;
      Some !acc
    end
  in
  (* Difference of two forms with the subtraction's cancellation dust
     absorbed into the remainder: keeps an exact tie (same path sum
     composed in different association order) on the step-function
     branch of [cdf_bounds] instead of a spurious Phi(0) = 1/2. *)
  let diff a b = Affine.absorb_dust ~k ~eps:(dust_eps a b) (Affine.sub a b) in
  (* Upper side of P{a > b} through the sound cdf enclosure (remainder
     and escape mass included). *)
  let exceed_hi a b =
    1.0 -. Float.max 0.0 (Interval.lo (Affine.cdf_bounds ~k (diff a b) 0.0))
  in
  let bounds =
    Array.init n (fun i ->
        if (not (Netlist.is_gate net i)) || not reaches.(i) then
          Interval.point 0.0
        else begin
          let through = Affine.add arrival.(i) (down i) in
          let path = Affine.add up_path.(i) (down_path i) in
          let lower =
            match paths with
            | Some qs when static.Static_criticality.active.(i) ->
                let miss = ref 0.0 in
                List.iter
                  (fun (form, members) ->
                    if not members.(i) then
                      miss := !miss +. exceed_hi form path)
                  qs;
                Float.max 0.0 (1.0 -. !miss)
            | _ ->
                Float.max 0.0
                  (Interval.lo (Affine.cdf_bounds ~k (diff d_form path) 0.0))
          in
          let upper =
            Float.min 1.0
              (Interval.hi (Affine.cdf_bounds ~k (diff ref_path through) 0.0))
          in
          (* Corner-proof intersection: a statically inactive gate can
             only be critical outside the +-k box. *)
          let upper =
            if static.Static_criticality.active.(i) then upper
            else Float.min upper (Float.min 1.0 escape)
          in
          Interval.make ~lo:(Float.min lower upper) ~hi:upper
        end)
  in
  {
    sg_bounds = bounds;
    sg_reaches = reaches;
    sg_escape = escape;
    sg_static = static;
  }

(* ---- dominant failure cones ------------------------------------------ *)

type cone = {
  cn_stage : int;
  cn_stem : int;
  cn_gates : int array;
  cn_gate_crit : Interval.t;
  cn_crit : Interval.t;
  cn_shift : float array;
  cn_depth : float option;
}

(* Forward reachability from the stem, restricted to gates that still
   reach an output: the cone's member set. *)
let cone_gates net ~reaches ~stem =
  let n = Netlist.n_nodes net in
  let seen = Array.make n false in
  let acc = ref [] in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      if Netlist.is_gate net i && reaches.(i) then acc := i :: !acc;
      Netlist.iter_fanouts net i go
    end
  in
  go stem;
  Array.of_list (List.sort compare !acc)

let frechet_and a b =
  prob_interval
    (Interval.make
       ~lo:(Float.max 0.0 (Interval.lo a +. Interval.lo b -. 1.0))
       ~hi:(Float.min (Interval.hi a) (Interval.hi b)))

(* Unit shift direction of one stage in the whitened (Cholesky/Factor)
   noise basis: row_s / sigma_s has norm 1 and is the direction of the
   minimal-norm design point for {X_s = t}. *)
let stage_unit_shift mvn s =
  let row = Mvn.cholesky_row mvn s in
  let sigma = Spv_stats.Gaussian.sigma (Mvn.marginal mvn s) in
  if sigma > 0.0 then Some (Array.map (fun l -> l /. sigma) row) else None

let rank_cones cones =
  let score c =
    ( Interval.lo c.cn_crit,
      Interval.lo c.cn_gate_crit,
      Interval.hi c.cn_crit )
  in
  List.sort
    (fun a b ->
      match compare (score b) (score a) with
      | 0 -> compare (a.cn_stage, a.cn_stem) (b.cn_stage, b.cn_stem)
      | c -> c)
    cones

(* ---- the pass -------------------------------------------------------- *)

type t = {
  co_k : float;
  co_threshold : float;
  co_t_target : float option;
  co_stages : stage_crit array;
  co_gates : stage_gates array option;
  co_slack : Affine.t option;
  co_cones : cone list;
}

let analyse ?(k = 6.0) ?(threshold = default_threshold) ?t_target ctx =
  let where = "Cones.analyse" in
  check_k ~where k;
  if not (Float.is_finite threshold && threshold >= 0.0 && threshold <= 1.0)
  then invalid_arg (where ^ ": threshold must be a probability");
  (match t_target with
  | Some t when not (Float.is_finite t) ->
      invalid_arg (where ^ ": non-finite t_target")
  | _ -> ());
  let mvn = Engine.Ctx.mvn ctx in
  let n = Engine.Ctx.n_stages ctx in
  let model_forms = Array.init n (Affine_sta.model_form mvn) in
  let pipe_model = Affine.max_many ~k model_forms in
  let stages = stage_criticalities mvn ~t_target in
  let slack =
    Option.map (fun t -> Affine.sub (Affine.const t) pipe_model) t_target
  in
  let gates, cones =
    if not (Engine.Ctx.gate_level ctx) then (None, [])
    else begin
      let rows = Affine_sta.spatial_rows ctx in
      let per_stage =
        Array.init n (fun s ->
            gate_criticalities ~k ctx ~sys_row:rows.(s) ~stage:s)
      in
      let cones = ref [] in
      for s = 0 to n - 1 do
        let net = Engine.Ctx.netlist ctx s in
        let sg = per_stage.(s) in
        let shift = stage_unit_shift mvn s in
        List.iter
          (fun (stem : Structure.stem) ->
            let members =
              cone_gates net ~reaches:sg.sg_reaches ~stem:stem.Structure.stem
            in
            if Array.length members > 0 then begin
              (* P{some member gate is critical for the stage}: at
                 least the best single member, at most the sum. *)
              let lo, hi =
                Array.fold_left
                  (fun (lo, hi) g ->
                    let b = sg.sg_bounds.(g) in
                    (Float.max lo (Interval.lo b), hi +. Interval.hi b))
                  (0.0, 0.0) members
              in
              let gate_crit =
                Interval.make ~lo:(Float.min lo 1.0) ~hi:(Float.min hi 1.0)
              in
              let crit = frechet_and stages.(s).sc_crit gate_crit in
              match shift with
              | None -> ()
              | Some u ->
                  cones :=
                    {
                      cn_stage = s;
                      cn_stem = stem.Structure.stem;
                      cn_gates = members;
                      cn_gate_crit = gate_crit;
                      cn_crit = crit;
                      cn_shift = u;
                      cn_depth = stages.(s).sc_depth;
                    }
                    :: !cones
            end)
          (Structure.stems net)
      done;
      (Some per_stage, rank_cones !cones)
    end
  in
  {
    co_k = k;
    co_threshold = threshold;
    co_t_target = t_target;
    co_stages = stages;
    co_gates = gates;
    co_slack = slack;
    co_cones = cones;
  }

let dominant_cones t =
  List.filter (fun c -> Interval.lo c.cn_crit >= t.co_threshold) t.co_cones

let gate_bounds t ~stage =
  match t.co_gates with
  | None -> None
  | Some per_stage -> Some (Array.copy per_stage.(stage).sg_bounds)

let slack_attribution t =
  match t.co_slack with None -> [] | Some s -> Affine.attribution s

(* ---- analyzer-derived importance proposal ---------------------------- *)

(* The engine-facing fast path: stage-level criticality only (no
   netlist traversal), because proposal construction sits on the
   sampling hot path.  A stage dominates when its criticality lower
   bound clears the threshold; the mixture then has one mode per stage
   that can cross the barrier, shifted to its *uncapped* design point
   (depth (t - mu_s) / sigma_s along row_s / sigma_s — the legacy
   mixture caps this depth at 6, which strands deep-tail proposals
   short of the barrier; see DESIGN §10), weighted by criticality x
   marginal exceedance.  [None] — no dominating stage — tells the
   engine to keep its legacy mixture. *)
let proposal ?(k = 6.0) ?(threshold = default_threshold) ctx ~t_target =
  check_k ~where:"Cones.proposal" k;
  if not (Float.is_finite t_target) then
    invalid_arg "Cones.proposal: non-finite t_target";
  let mvn = Engine.Ctx.mvn ctx in
  let n = Mvn.dim mvn in
  let l = Matrix.data (Mvn.cholesky mvn) in
  let mus = Mvn.means mvn and sigmas = Mvn.sigmas mvn in
  for s = 0 to n - 1 do
    if
      not
        (Float.is_finite (Array.unsafe_get mus s)
        && Float.is_finite (Array.unsafe_get sigmas s))
    then invalid_arg "Cones.proposal: non-finite stage moment"
  done;
  let w = crit_scratch n in
  stage_bounds_into mvn w;
  (* [w.lower] becomes [sc_crit]'s lower end, as [stage_criticalities]
     builds it, and [depth] each stage's crossing depth (0 for a
     deterministic stage, which gets no mode). *)
  let crit_lo = w.lower and depth = Float.Array.make n 0.0 in
  let dominates = ref false and modes = ref 0 in
  for s = 0 to n - 1 do
    let lo = Float.min (Float.Array.get crit_lo s) (Float.Array.get w.upper s) in
    Float.Array.set crit_lo s lo;
    if lo >= threshold then dominates := true;
    let sigma = Array.unsafe_get sigmas s in
    if sigma > 0.0 then begin
      let d = (t_target -. Array.unsafe_get mus s) /. sigma in
      Float.Array.set depth s d;
      if d > 0.0 then incr modes
    end
  done;
  if not !dominates then None
  else if !modes = 0 then
    (* Barrier at or below every stage mean: a body target.  Hand the
       engine an explicit zero shift so its body detection reports the
       plain-MC fallback. *)
    Some ([| Array.make n 0.0 |], [| 1.0 |])
  else begin
    (* One mode per stage with a positive depth, shifted to its
       design point: depth along row_s / sigma_s. *)
    let shifts = Array.make !modes [||] in
    let tails = Float.Array.make !modes 0.0 in
    let m = ref 0 in
    for s = 0 to n - 1 do
      let d = Float.Array.get depth s in
      if d > 0.0 then begin
        let sigma = Array.unsafe_get sigmas s in
        let shift = Array.make n 0.0 in
        for k = 0 to n - 1 do
          Array.unsafe_set shift k
            (Array.unsafe_get l ((s * n) + k) /. sigma *. d)
        done;
        shifts.(!m) <- shift;
        Float.Array.set tails !m d;
        incr m
      end
    done;
    Special.upper_tail_into tails ~pos:0 ~len:!modes;
    (* Criticality-weighted marginal exceedance, floored so that no mode
       and no alpha degenerates to an exact zero. *)
    let alphas = Array.make !modes 0.0 in
    let m = ref 0 in
    for s = 0 to n - 1 do
      if Float.Array.get depth s > 0.0 then begin
        let crit = Float.max (Float.Array.get crit_lo s) 1e-3 in
        let tail = Float.max (Float.Array.get tails !m) 1e-300 in
        Array.unsafe_set alphas !m (crit *. tail);
        incr m
      end
    done;
    Some (shifts, alphas)
  end

let install_engine_proposal () =
  Engine.register_proposal_provider (fun ctx ~t_target ->
      proposal ctx ~t_target)

(* ---- findings -------------------------------------------------------- *)

let findings t =
  let num v = Report.Num v in
  let stage_findings =
    Array.to_list t.co_stages
    |> List.map (fun s ->
           let data =
             [
               ("crit_lower", num (Interval.lo s.sc_crit));
               ("crit_upper", num (Interval.hi s.sc_crit));
             ]
             @
             match s.sc_depth with
             | None -> []
             | Some d -> [ ("tail_depth", num d) ]
           in
           let severity =
             if Interval.is_finite s.sc_crit then Report.Info else Report.Error
           in
           Report.finding ~severity ~location:(Report.Stage s.sc_stage)
             ~pass:"cones" ~data "stage criticality bounds")
  in
  let cone_findings =
    let dom = dominant_cones t in
    List.filteri (fun i _ -> i < 5) (rank_cones dom)
    |> List.map (fun c ->
           Report.finding ~severity:Report.Warn
             ~location:(Report.Node { stage = c.cn_stage; node = c.cn_stem })
             ~pass:"cones"
             ~data:
               [
                 ("gates", Report.Int (Array.length c.cn_gates));
                 ("crit_lower", num (Interval.lo c.cn_crit));
                 ("crit_upper", num (Interval.hi c.cn_crit));
                 ("gate_crit_lower", num (Interval.lo c.cn_gate_crit));
                 ("gate_crit_upper", num (Interval.hi c.cn_gate_crit));
               ]
             "dominant failure cone at reconvergent stem")
  in
  let slack_findings =
    match (t.co_slack, t.co_t_target) with
    | Some slack, Some target ->
        let nominal = Affine.center slack in
        let sigma = Affine.sigma slack in
        let attrib =
          List.map
            (fun (cls, s) -> ("sigma_" ^ cls, num s))
            (Affine.attribution slack)
        in
        let severity = if nominal < 0.0 then Report.Warn else Report.Info in
        [
          Report.finding ~severity ~pass:"cones"
            ~data:
              ([
                 ("t_target", num target);
                 ("nominal_slack", num nominal);
                 ("slack_sigma", num sigma);
               ]
              @ attrib)
            "statistical slack to T_target";
        ]
    | _ -> []
  in
  let summary =
    let dom = dominant_cones t in
    Report.finding ~pass:"cones"
      ~data:
        [
          ("stages", Report.Int (Array.length t.co_stages));
          ("cones", Report.Int (List.length t.co_cones));
          ("dominant_cones", Report.Int (List.length dom));
          ("threshold", num t.co_threshold);
        ]
      "failure-cone criticality summary"
  in
  (summary :: slack_findings) @ stage_findings @ cone_findings
