(* Seed-driven input generation.  Everything here is a pure function of
   the workload seed (through [Stdlib.Random.State]); the libraries
   under test only ever see what these functions produce.

   Cost-relevant properties are stratified rather than drawn freely:
   each workload lists its strata with a weight, and its call sequence
   is a run of blocks, each block a seed-shuffled permutation holding
   every stratum exactly [weight] times.  Any whole number of blocks
   therefore carries the same mix, so throughput and latency
   percentiles depend on the code, not on which inputs a seed happened
   to draw.  The weights are chosen so that p50 and p90 fall inside a
   stratum, never on the boundary between two.  Secondary parameters
   that move the cost (correlation, delay-target factor, yield target)
   rotate with the block index, so a pass of a given length carries the
   same ones for every seed; the seed draws the values within them and
   the order of every block. *)

let state ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [blocks] blocks; block [b] holds [make ~block:b ~stratum:k
   ~occurrence:j] for every stratum [k] and [j < weights.(k)], in
   shuffled order. *)
let blocked st ~weights ~blocks make =
  Array.concat
    (List.init blocks (fun block ->
         let b =
           Array.concat
             (Array.to_list
                (Array.mapi
                   (fun stratum w ->
                     Array.init w (fun occurrence -> make ~block ~stratum ~occurrence))
                   weights))
         in
         shuffle st b;
         b))

(* The stratum of every position. *)
let schedule st ~weights ~blocks =
  blocked st ~weights ~blocks (fun ~block:_ ~stratum ~occurrence:_ -> stratum)

let block_size weights = Array.fold_left ( + ) 0 weights
let uniform st ~lo ~hi = lo +. Random.State.float st (hi -. lo)

(* ---- Zipf ------------------------------------------------------------ *)

(* Cumulative distribution of Zipf(s) over ranks 0 .. k-1 (rank r has
   weight 1 / (r + 1)^s). *)
let zipf_cdf ~k ~s =
  let w = Array.init k (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw st cdf =
  let u = Random.State.float st 1.0 in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

(* ---- grid texts ------------------------------------------------------ *)

type moments = { rho : float; stages : (float * float) array }

let draw_moments st ~n_stages ~rho =
  {
    rho;
    stages =
      Array.init n_stages (fun _ ->
          let mu = uniform st ~lo:95.0 ~hi:105.0 in
          let sigma = uniform st ~lo:3.0 ~hi:7.0 in
          (mu, sigma));
  }

let moments_lines m =
  Printf.sprintf "rho %.17g\nstages %s\n" m.rho
    (String.concat " "
       (Array.to_list
          (Array.map (fun (mu, s) -> Printf.sprintf "%.17g,%.17g" mu s) m.stages)))

let targets_line ts =
  "targets "
  ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") ts))
  ^ "\n"

(* [count] targets evenly spaced over [mu + lo_k sigma, mu + hi_k sigma]. *)
let spaced_targets ~mu ~sigma ~lo_k ~hi_k ~count =
  Array.init count (fun i ->
      let k = lo_k +. ((hi_k -. lo_k) *. float_of_int i /. float_of_int (count - 1)) in
      mu +. (k *. sigma))

(* ---- sweep-mc -------------------------------------------------------- *)

(* Stage counts and their weights per 20-grid block: p50 falls in the
   8-stage stratum (cumulative 40-60 %), p90 in the 32-stage one
   (85-95 %). *)
let sweep_stage_counts = [| 4; 8; 12; 16; 32; 64 |]
let sweep_weights = [| 8; 4; 3; 2; 2; 1 |]
let sweep_rhos = [| 0.0; 0.3; 0.6 |]

let sweep_specs ~seed ~blocks =
  let st = state ~seed ~salt:1 in
  blocked st ~weights:sweep_weights ~blocks (fun ~block ~stratum ~occurrence ->
      draw_moments st ~n_stages:sweep_stage_counts.(stratum)
        ~rho:sweep_rhos.((block + stratum + occurrence) mod 3))

let sweep_grid m ~targets =
  moments_lines m ^ targets_line targets
  ^ "method mc,adaptive,importance\nsamples 1000\nshards 8\n"

(* ---- gate-mc --------------------------------------------------------- *)

(* Per 10-call block: 4 chain pipelines, 4 ALU-decoder calls, 2 ISCAS
   calls, so p50 sits among the ALU calls and p90 among the ISCAS
   ones. *)
let gate_weights = [| 4; 4; 2 |]
let gate_chains = 8

let gate_chain_pool ~seed =
  let st = state ~seed ~salt:2 in
  Array.init gate_chains (fun _ ->
      let stages = 4 + Random.State.int st 13 in
      Array.init stages (fun _ -> 4 + Random.State.int st 9))

type gate_call = { ctx : int; exact : bool; call_seed : int }
(** [ctx] indexes [Iscas :: Alu8 :: chains]. *)

let gate_calls ~seed ~blocks =
  let st = state ~seed ~salt:3 in
  Array.mapi
    (fun i k ->
      let ctx = match k with 0 -> 2 + Random.State.int st gate_chains | 1 -> 1 | _ -> 0 in
      { ctx; exact = i mod 4 = 3; call_seed = Random.State.bits st })
    (schedule st ~weights:gate_weights ~blocks)

(* ---- serve-zipf ------------------------------------------------------ *)

let serve_builtins = [| "c432"; "c1908"; "c2670"; "c3540"; "rca8"; "alu8"; "dec4"; "chain10" |]
let serve_processes = [| None; Some 30.0; Some 45.0; Some 60.0 |]
let serve_templates = 80

type template =
  | Circuit_t of { circuit : string; inter_vth_mv : float option; hier : bool }
  | Moments_t of moments

(* Fixed popularity order (Zipf rank -> template): every fifth rank is
   a moments template; circuit templates alternate flat/hierarchical,
   cycle the builtins, and grow the process override with rank.  Only
   the moments' stage values and the request stream come from the
   seed, so the cost of the hot set is the same for every seed. *)
let serve_template_specs ~seed =
  let st = state ~seed ~salt:4 in
  Array.init serve_templates (fun r ->
      let k = r / 5 in
      if r mod 5 = 0 then
        Moments_t
          (draw_moments st ~n_stages:[| 4; 8; 16 |].(k mod 3)
             ~rho:sweep_rhos.(k mod 3))
      else
        let j = (4 * k) + (r mod 5) - 1 in
        Circuit_t
          {
            circuit = serve_builtins.((j / 2) mod 8);
            inter_vth_mv = serve_processes.(j / 16);
            hier = j mod 2 = 1;
          })

let serve_stream ~seed ~length =
  let st = state ~seed ~salt:5 in
  let cdf = zipf_cdf ~k:serve_templates ~s:1.0 in
  Array.init length (fun _ -> zipf_draw st cdf)

let serve_circuit_grid ~circuit ~inter_vth_mv ~targets =
  Printf.sprintf "circuit %s\n%s%smethod clark,independent\n" circuit
    (match inter_vth_mv with
    | None -> ""
    | Some mv -> Printf.sprintf "inter_vth_mv %g\n" mv)
    (targets_line targets)

let serve_moments_grid m ~targets =
  moments_lines m ^ targets_line targets ^ "method clark,mc\nsamples 4000\nshards 4\n"

(* ---- size-design ----------------------------------------------------- *)

type design_net = Chains of int array | Alu of int  (** bits *)
type design = {
  net : design_net;
  minimise : bool;  (** [Global_opt.minimise_area], else [ensure_yield] *)
  yield_target : float;
  f : float;  (** target = f x max stage minimum-achievable delay *)
}

(* One stratum per (pipeline, operation): chains of 4/8/12/16 stages
   and 4/8-bit ALU-decoders, each under ensure_yield and
   minimise_area.  Over ten blocks every stratum meets each tenth of
   the f range [0.97, 1.10] once, under each yield target five times. *)
let design_strata =
  Array.concat
    (List.map
       (fun minimise ->
         Array.map
           (fun n -> (n, minimise))
           [| `Chain 4; `Chain 8; `Chain 12; `Chain 16; `Alu 4; `Alu 8 |])
       [ false; true ])

let design_f_bands = 10
let chain_depths = [| 4; 5; 6; 7; 8; 9; 10 |]

let design_specs ~seed ~blocks =
  let st = state ~seed ~salt:6 in
  blocked st ~weights:(Array.make (Array.length design_strata) 1) ~blocks
    (fun ~block ~stratum ~occurrence:_ ->
      let shape, minimise = design_strata.(stratum) in
      let net =
        match shape with
        | `Chain n ->
            let d = Array.init n (fun i -> chain_depths.(i mod Array.length chain_depths)) in
            shuffle st d;
            Chains d
        | `Alu bits -> Alu bits
      in
      let band = (stratum + block) mod design_f_bands in
      {
        net;
        minimise;
        yield_target =
          (if (stratum + (block / (design_f_bands / 2))) mod 2 = 0 then 0.8 else 0.9);
        f =
          0.97
          +. (0.13 *. (float_of_int band +. Random.State.float st 1.0)
             /. float_of_int design_f_bands);
      })

(* ---- fuzz-oracle ----------------------------------------------------- *)

(* Strata by fuzzed pipeline stage count (1, 2, 3 or more) per 10-trial
   block: p50 falls among the 2-stage cases, p90 among the deepest. *)
let fuzz_weights = [| 3; 3; 4 |]
let fuzz_stratum ~n_stages = min 2 (n_stages - 1)

(* The case pool: generator seeds drawn from a fixed stream, the same
   for every workload seed, so it can be screened once for oracle
   findings (see [Workloads.fuzz_findings]).  A workload seed picks
   and orders its cases from the pool. *)
let fuzz_pool_size = 2400

let fuzz_pool () =
  let st = state ~seed:0 ~salt:7 in
  Array.init fuzz_pool_size (fun _ -> Random.State.bits st)

let fuzz_schedule ~seed ~blocks =
  schedule (state ~seed ~salt:8) ~weights:fuzz_weights ~blocks
