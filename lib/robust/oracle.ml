module Fuzz = Spv_circuit.Fuzz
module Netlist = Spv_circuit.Netlist
module Bench_format = Spv_circuit.Bench_format
module Tech = Spv_process.Tech
module Rng = Spv_stats.Rng
module Gaussian = Spv_stats.Gaussian
module E = Spv_engine.Engine
module Interval = Spv_analysis.Interval
module Bounds = Spv_analysis.Bounds
module Affine_sta = Spv_analysis.Affine_sta
module Certify = Spv_analysis.Certify

type tolerances = { clark_abs : float; agree_z : float; cert_slack : float }

let default_tolerances = { clark_abs = 0.02; agree_z = 5.0; cert_slack = 0.005 }

type invariant =
  | Agreement
  | Envelope
  | Containment
  | Nesting
  | Certificate
  | Replay
  | Hier
  | Deriv
  | Escape

let invariant_name = function
  | Agreement -> "agreement"
  | Envelope -> "envelope"
  | Containment -> "containment"
  | Nesting -> "nesting"
  | Certificate -> "certificate"
  | Replay -> "replay"
  | Hier -> "hier"
  | Deriv -> "deriv"
  | Escape -> "escape"

let all_invariants =
  [
    Agreement;
    Envelope;
    Containment;
    Nesting;
    Certificate;
    Replay;
    Hier;
    Deriv;
    Escape;
  ]

let invariant_of_string s =
  List.find_opt (fun i -> invariant_name i = s) all_invariants

type violation = { invariant : invariant; detail : string }

let violation_to_error v =
  Errors.violation ~invariant:(invariant_name v.invariant) v.detail

(* Per-trial sampling budgets: small enough for a 200-trial smoke run,
   large enough that the agreement tolerances have teeth. *)
let mc_n = 2048
let adaptive_min = 512
let adaptive_max = 4096
let importance_n = 2048
let model_sample_n = 256
let gate_sample_n = 96
let gate_sample_exact_n = 64

let check_ctx ?(tolerances = default_tolerances) ?(invariants = all_invariants)
    ?macro_table ctx ~seed =
  (* Every importance estimate below samples with the analyzer's cone
     proposal; installing it here keeps the verdicts independent of
     whatever the caller registered before. *)
  Spv_analysis.Cones.install_engine_proposal ();
  let tol = tolerances in
  let run = ref 0 in
  let violations = ref [] in
  let record inv detail =
    violations := { invariant = inv; detail } :: !violations
  in
  let check inv cond detail =
    incr run;
    if not cond then record inv (detail ())
  in
  let want inv = List.mem inv invariants in
  (* Any exception escaping a check section on lint-legal input is a
     finding in its own right (the typed error boundary must hold). *)
  let guarded where f =
    match Checked.protect ~where f with
    | Ok () -> ()
    | Error err ->
        incr run;
        record Escape (Errors.to_string err)
  in
  let build where f =
    match Checked.protect ~where f with
    | Ok v -> Some v
    | Error err ->
        incr run;
        record Escape (Errors.to_string err);
        None
  in
  let g = E.Ctx.delay_distribution ctx in
  let mu = Gaussian.mu g in
  let sigma = Gaussian.sigma g in
  let degenerate = sigma <= 1e-12 in
  let targets =
    if degenerate then [| mu |]
    else [| mu; mu +. sigma; mu +. (2.0 *. sigma) |]
  in
  let t_tail = mu +. (4.0 *. sigma) in
  let gate_level = E.Ctx.gate_level ctx in
  let scale_slack =
    (* float-roundoff allowance on absolute delays (sampler STA vs
       corner STA accumulate in different orders) *)
    1e-6 *. Float.max 1.0 (Float.abs mu +. (8.0 *. sigma))
  in
  let need_estimates = want Agreement || want Envelope in
  let need_bounds =
    want Envelope || want Containment || want Nesting || want Certificate
  in
  let need_affine = want Envelope || want Containment || want Nesting in
  let estimates =
    if not need_estimates then None
    else
      build "oracle estimates" (fun () ->
          Array.map
            (fun t ->
              let clark = E.yield ~method_:E.Analytic_clark ctx ~t_target:t in
              let mc = E.yield ~method_:E.Mc ~seed ~n:mc_n ctx ~t_target:t in
              let adaptive =
                E.yield ~method_:E.Adaptive_mc ~seed ~min_samples:adaptive_min
                  ~max_samples:adaptive_max ctx ~t_target:t
              in
              let quad = E.yield ~method_:E.Quadrature ctx ~t_target:t in
              let indep =
                E.yield ~method_:E.Exact_independent ctx ~t_target:t
              in
              let imp =
                (* the importance estimator's documented contract is
                   rare-event (tail) probabilities; at body targets its
                   mean-shifted mixture is out of its domain (fuzzer
                   finding: ~0.998 vs a true 0.525 at t = mu) *)
                if degenerate || t < mu +. (1.99 *. sigma) then None
                else
                  Some
                    (E.yield ~method_:E.Importance ~seed ~n:importance_n ctx
                       ~t_target:t)
              in
              (t, clark, mc, adaptive, quad, indep, imp))
            targets)
  in
  let bounds =
    if not need_bounds then None else build "interval bounds" (fun () -> Bounds.of_ctx ctx)
  in
  let affine =
    if not need_affine then None
    else build "affine enclosures" (fun () -> Affine_sta.of_ctx ctx)
  in
  (* Agreement: every sampler agrees with plain MC within z combined
     standard errors (plus the documented Clark-family absolute
     allowance for the closed forms). *)
  (match estimates with
  | Some ests when want Agreement ->
      Array.iter
        (fun (t, clark, mc, adaptive, quad, indep, imp) ->
          let se = mc.E.std_error in
          let diff a b = Float.abs (a.E.value -. b.E.value) in
          let say name a =
            Printf.sprintf "%s %.6f vs mc %.6f (se %.3g) at t=%.6g" name
              a.E.value mc.E.value se t
          in
          check Agreement
            (diff clark mc <= tol.clark_abs +. (tol.agree_z *. se))
            (fun () -> say "clark" clark);
          check Agreement
            (diff adaptive mc
            <= (tol.agree_z *. (adaptive.E.std_error +. se)) +. 1e-9)
            (fun () -> say "adaptive" adaptive);
          check Agreement
            (diff quad mc <= tol.clark_abs +. (tol.agree_z *. se))
            (fun () -> say "quadrature" quad);
          (match imp with
          | Some i ->
              check Agreement
                (diff i mc
                <= (tol.agree_z *. (i.E.std_error +. se))
                   +. (0.5 *. tol.clark_abs))
                (fun () -> say "importance" i)
          | None -> ());
          if E.Ctx.nearly_independent ctx then
            check Agreement
              (diff indep mc <= (0.25 *. tol.clark_abs) +. (tol.agree_z *. se))
              (fun () -> say "independent" indep))
        ests
  | _ -> ());
  (* Envelope: every estimate sits inside the Fréchet / affine yield
     envelopes; the deep-tail loss (where plain MC is blind) sits
     inside the union-bound loss envelope. *)
  (match (estimates, bounds) with
  | Some ests, Some b when want Envelope ->
      let verdict name t v =
        check Envelope
          (Bounds.verdict_ok v)
          (fun () ->
            Printf.sprintf "%s estimate outside interval envelope at t=%.6g"
              name t)
      in
      Array.iter
        (fun (t, clark, mc, adaptive, quad, indep, imp) ->
          let each name est =
            verdict name t (Bounds.check ~t_target:t b est);
            match affine with
            | Some a ->
                check Envelope
                  (Bounds.verdict_ok (Affine_sta.check ~t_target:t a est))
                  (fun () ->
                    Printf.sprintf
                      "%s estimate outside affine envelope at t=%.6g" name t)
            | None -> ()
          in
          each "clark" clark;
          each "mc" mc;
          each "adaptive" adaptive;
          each "quadrature" quad;
          each "independent" indep;
          match imp with Some i -> each "importance" i | None -> ())
        ests;
      guarded "mean envelope" (fun () ->
          let m_clark = E.delay_mean ~method_:E.Analytic_clark ctx in
          let m_mc =
            E.delay_mean ~method_:E.Adaptive_mc ~seed ~min_samples:adaptive_min
              ~max_samples:adaptive_max ctx
          in
          List.iter
            (fun (name, m) ->
              check Envelope
                (Bounds.verdict_ok (Bounds.check b m))
                (fun () ->
                  Printf.sprintf "%s mean outside interval envelope" name);
              match affine with
              | Some a ->
                  check Envelope
                    (Bounds.verdict_ok (Affine_sta.check a m))
                    (fun () ->
                      Printf.sprintf "%s mean outside affine envelope" name)
              | None -> ())
            [ ("clark", m_clark); ("adaptive", m_mc) ]);
      if not degenerate then
        guarded "tail envelope" (fun () ->
            let yb = Bounds.yield_bounds b ~t_target:t_tail in
            let loss_lo = 1.0 -. Interval.hi yb in
            let loss_hi = 1.0 -. Interval.lo yb in
            (* The cone proposal (installed at the top of [check_ctx])
               shifts to the uncapped design point, so the deep-tail
               estimate is accurate enough for a 2% relative envelope
               (the legacy mixture needed 5% here before the cones
               pass existed). *)
            let imp_loss =
              E.yield_loss ~method_:E.Importance ~seed ~n:importance_n ctx
                ~t_target:t_tail
            in
            let quad_loss =
              E.yield_loss ~method_:E.Quadrature ctx ~t_target:t_tail
            in
            (* In the tail the Fréchet envelope can collapse to a
               point (one stage dominates), so the sampling allowance
               must be relative, not the 0.02 absolute of the body
               checks. *)
            let slack = tol.agree_z *. imp_loss.E.std_error in
            check Envelope
              (imp_loss.E.value >= (loss_lo *. 0.98) -. slack -. 1e-15
              && imp_loss.E.value <= (loss_hi *. 1.02) +. slack +. 1e-15)
              (fun () ->
                Printf.sprintf
                  "importance tail loss %.3g outside union-bound envelope \
                   [%.3g, %.3g] at t=%.6g (proposal %s, ess %s)"
                  imp_loss.E.value loss_lo loss_hi t_tail
                  (match imp_loss.E.proposal with
                  | Some p -> E.proposal_used_name p
                  | None -> "-")
                  (match imp_loss.E.ess with
                  | Some s -> Printf.sprintf "%.1f" s
                  | None -> "-"));
            (* Clark-family closed forms are NOT held to the Fréchet
               floor here: moment-matching the max can shrink sigma_T
               below a dominant stage's sigma, so the Clark tail loss
               legitimately undershoots that stage's marginal loss
               (fuzzer finding: up to 40x at mu + 4 sigma).  Only the
               union-bound ceiling is part of their contract. *)
            check Envelope
              (quad_loss.E.value <= (loss_hi *. 1.25) +. 1e-15)
              (fun () ->
                Printf.sprintf
                  "quadrature tail loss %.3g above union-bound ceiling %.3g \
                   at t=%.6g"
                  quad_loss.E.value loss_hi t_tail))
  | _ -> ());
  (* Containment: sampled pipeline delays fall inside the static
     enclosures. *)
  (match bounds with
  | Some b when want Containment ->
      guarded "model containment" (fun () ->
          let samples = E.sample_delays ~seed ctx ~n:model_sample_n in
          let against name iv =
            let outside = Interval.mem_all ~slack:scale_slack iv samples in
            check Containment (outside = 0) (fun () ->
                Printf.sprintf "%d/%d model delay samples outside %s enclosure"
                  outside model_sample_n name)
          in
          against "interval" b.Bounds.delay;
          match affine with
          | Some a -> against "affine" a.Affine_sta.delay
          | None -> ());
      if gate_level then
        guarded "gate containment" (fun () ->
            let lin =
              E.gate_level_delays ~exact:false ~seed ctx ~n:gate_sample_n
            in
            let exact =
              E.gate_level_delays ~exact:true ~seed ctx ~n:gate_sample_exact_n
            in
            let against name iv samples =
              let outside = Interval.mem_all ~slack:scale_slack iv samples in
              check Containment (outside = 0) (fun () ->
                  Printf.sprintf
                    "%d/%d gate-level delay samples outside %s enclosure"
                    outside (Array.length samples) name)
            in
            against "interval" b.Bounds.delay lin;
            against "interval(exact)" b.Bounds.delay exact;
            match affine with
            | Some a -> against "affine" a.Affine_sta.delay lin
            | None -> ())
  | _ -> ());
  (* Nesting: the affine refinement is contained in the interval
     baseline — delay, mean, per-stage, and the yield envelopes. *)
  (match (bounds, affine) with
  | Some b, Some a when want Nesting ->
      let subset ?(eps = scale_slack) name inner outer =
        check Nesting
          (Interval.lo inner >= Interval.lo outer -. eps
          && Interval.hi inner <= Interval.hi outer +. eps)
          (fun () ->
            Printf.sprintf "affine %s %s not nested in interval %s" name
              (Interval.to_string inner)
              (Interval.to_string outer))
      in
      subset "delay" a.Affine_sta.delay b.Bounds.delay;
      subset "mean" a.Affine_sta.mean b.Bounds.mean;
      Array.iteri
        (fun i st ->
          subset
            (Printf.sprintf "stage %d" i)
            st.Affine_sta.enclosure b.Bounds.stages.(i).Bounds.total)
        a.Affine_sta.stages;
      Array.iter
        (fun t ->
          subset ~eps:1e-12
            (Printf.sprintf "yield bounds at t=%.6g" t)
            (Affine_sta.yield_bounds a ~t_target:t)
            (Bounds.yield_bounds b ~t_target:t))
        targets
  | _ -> ());
  (* Certificate soundness: Proved => MC confirms at matched
     confidence; Refuted => the counterexample stage's marginal
     reproduces the refutation and MC respects the Fréchet upper
     bound. *)
  (if want Certificate then
     let probe t_cert =
       guarded
         (Printf.sprintf "certificate at t=%.6g" t_cert)
         (fun () ->
           let y_target = 0.9 in
           let cert = Certify.of_ctx ~t_target:t_cert ~yield:y_target ctx in
           let mc () =
             E.yield ~method_:E.Mc ~seed ~n:mc_n ctx ~t_target:t_cert
           in
           match cert.Certify.status with
           | Certify.Proved ->
               let m = mc () in
               check Certificate
                 (m.E.value
                 >= y_target
                    -. (tol.agree_z *. m.E.std_error)
                    -. tol.cert_slack)
                 (fun () ->
                   Printf.sprintf
                     "proved yield >= %.2f at t=%.6g but mc measured %.4f (se \
                      %.3g)"
                     y_target t_cert m.E.value m.E.std_error)
           | Certify.Refuted -> (
               match cert.Certify.counterexample with
               | None ->
                   check Certificate false (fun () ->
                       "refuted certificate carries no counterexample stage")
               | Some sc ->
                   (match bounds with
                   | Some b ->
                       let marg = b.Bounds.marginals.(sc.Certify.stage) in
                       let y = Gaussian.cdf marg t_cert in
                       check Certificate
                         (y < y_target +. 1e-9)
                         (fun () ->
                           Printf.sprintf
                             "counterexample stage %d marginal yield %.4f does \
                              not reproduce refutation of %.2f at t=%.6g"
                             sc.Certify.stage y y_target t_cert)
                   | None -> ());
                   let m = mc () in
                   check Certificate
                     (m.E.value
                     <= cert.Certify.min_yield
                        +. (tol.agree_z *. m.E.std_error)
                        +. tol.cert_slack)
                     (fun () ->
                       Printf.sprintf
                         "mc yield %.4f exceeds Fréchet upper bound %.4f of \
                          the refuted certificate at t=%.6g"
                         m.E.value cert.Certify.min_yield t_cert))
           | Certify.Inconclusive -> ())
     in
     probe (mu +. (3.0 *. sigma));
     if not degenerate then probe mu);
  (* Replay: bit-identical results across jobs and across repeated
     runs at the same (seed, shards). *)
  (if want Replay then
     let bits = Int64.bits_of_float in
     let same_estimate a b =
       bits a.E.value = bits b.E.value
       && bits a.E.std_error = bits b.E.std_error
       && a.E.n_samples = b.E.n_samples
     in
     let same_samples a b =
       Array.length a = Array.length b
       && Array.for_all2 (fun x y -> bits x = bits y) a b
     in
     guarded "replay" (fun () ->
         let t = mu in
         let m1 = E.yield ~method_:E.Mc ~jobs:1 ~seed ~n:mc_n ctx ~t_target:t in
         let m3 = E.yield ~method_:E.Mc ~jobs:3 ~seed ~n:mc_n ctx ~t_target:t in
         check Replay (same_estimate m1 m3) (fun () ->
             Printf.sprintf "mc yield differs across jobs: %.17g vs %.17g"
               m1.E.value m3.E.value);
         let a1 =
           E.yield ~method_:E.Adaptive_mc ~jobs:1 ~seed
             ~min_samples:adaptive_min ~max_samples:adaptive_max ctx
             ~t_target:t
         in
         let a4 =
           E.yield ~method_:E.Adaptive_mc ~jobs:4 ~seed
             ~min_samples:adaptive_min ~max_samples:adaptive_max ctx
             ~t_target:t
         in
         check Replay (same_estimate a1 a4) (fun () ->
             Printf.sprintf
               "adaptive mc yield differs across jobs: %.17g vs %.17g"
               a1.E.value a4.E.value);
         let s1 = E.sample_delays ~seed ctx ~n:128 in
         let s2 = E.sample_delays ~seed ctx ~n:128 in
         check Replay (same_samples s1 s2) (fun () ->
             "model delay sampling is not repeatable at fixed (seed, shards)");
         if gate_level then begin
           let g1 =
             E.gate_level_delays ~exact:false ~jobs:1 ~seed ctx ~n:32
           in
           let g2 =
             E.gate_level_delays ~exact:false ~jobs:2 ~seed ctx ~n:32
           in
           check Replay (same_samples g1 g2) (fun () ->
               "gate-level delay samples differ across jobs")
         end));
  (* Hier: the macro-composed model agrees with the flat model within
     the estimate's reported [hier_bound] on every fuzzed netlist.
     Closed forms must match exactly at the bound (it IS the gap, and
     the flat reference inside the hierarchical context is built from
     the same memoised per-stage analyses as the flat context);
     Monte-Carlo on the macro model's MVN additionally pays its own
     and the flat run's sampling noise. *)
  (if want Hier && gate_level then
     guarded "hier" (fun () ->
         let n = E.Ctx.n_stages ctx in
         let nets = Array.init n (E.Ctx.netlist ctx) in
         let hctx =
           E.Ctx.of_circuits ~mode:E.Hierarchical ?macro_table
             ~pitch:(E.Ctx.pitch ctx) ?ff:(E.Ctx.flipflop ctx) (E.Ctx.tech ctx)
             nets
         in
         let bound e =
           match e.E.hier_bound with
           | Some b -> b
           | None -> Float.neg_infinity (* hier estimate must carry one *)
         in
         Array.iter
           (fun t ->
             List.iter
               (fun (name, method_) ->
                 let f = E.yield ~method_ ctx ~t_target:t in
                 let h = E.yield ~method_ hctx ~t_target:t in
                 check Hier
                   (Float.abs (f.E.value -. h.E.value) <= bound h +. 1e-12)
                   (fun () ->
                     Printf.sprintf
                       "%s hier yield %.9g vs flat %.9g exceeds bound %.3g \
                        at t=%.6g"
                       name h.E.value f.E.value (bound h) t))
               [
                 ("clark", E.Analytic_clark);
                 ("independent", E.Exact_independent);
               ])
           targets;
         let t = targets.(Array.length targets - 1) in
         let fm = E.yield ~method_:E.Mc ~seed ~n:mc_n ctx ~t_target:t in
         let hm = E.yield ~method_:E.Mc ~seed ~n:mc_n hctx ~t_target:t in
         check Hier
           (Float.abs (fm.E.value -. hm.E.value)
           <= bound hm
              +. (tol.agree_z *. (fm.E.std_error +. hm.E.std_error))
              +. (0.5 *. tol.clark_abs))
           (fun () ->
             Printf.sprintf
               "mc hier yield %.6f vs flat %.6f exceeds bound %.3g + noise \
                at t=%.6g"
               hm.E.value fm.E.value (bound hm) t);
         let fmean = E.delay_mean ~method_:E.Analytic_clark ctx in
         let hmean = E.delay_mean ~method_:E.Analytic_clark hctx in
         check Hier
           (Float.abs (fmean.E.value -. hmean.E.value)
           <= bound hmean +. 1e-12)
           (fun () ->
             Printf.sprintf
               "clark hier mean %.9g vs flat %.9g exceeds bound %.3g"
               hmean.E.value fmean.E.value (bound hmean))));
  (* Deriv: certified sensitivity enclosures are sound against the
     concrete model — the value interval contains the concrete stage
     moments at the box centre, and (mean value theorem) every central
     finite difference with a stencil inside the box lies in the
     derivative interval.  Decertified enclosures report the full
     line, so the derivative side is structurally sound there; the
     value side is checked either way. *)
  (if want Deriv && gate_level then
     let module Sens = Spv_analysis.Sensitivity in
     let module Ssta = Spv_circuit.Ssta in
     let module Gd = Spv_process.Gate_delay in
     guarded "deriv" (fun () ->
         let tech = E.Ctx.tech ctx in
         let ff = E.Ctx.flipflop ctx in
         let n = E.Ctx.n_stages ctx in
         let stage_list = if n = 1 then [ 0 ] else [ 0; n - 1 ] in
         List.iter
           (fun s ->
             let net = E.Ctx.netlist ctx s in
             let gids = Netlist.gate_ids net in
             let n_g = Array.length gids in
             let knobs =
               if n_g <= 2 then Array.to_list gids
               else [ gids.(0); gids.(n_g / 2); gids.(n_g - 1) ]
             in
             List.iter
               (fun g ->
                 let x = Netlist.size net g in
                 let h = 0.05 *. x in
                 let box =
                   Interval.make ~lo:(x -. (2.0 *. h)) ~hi:(x +. (2.0 *. h))
                 in
                 let sens =
                   Sens.ctx_stage ctx ~stage:s ~param:(Sens.Size g) ~box
                 in
                 (* Restore the caller's net even if the probe escapes. *)
                 let at_size v f =
                   Netlist.set_size net g v;
                   Fun.protect ~finally:(fun () -> Netlist.set_size net g x) f
                 in
                 let moments_at v =
                   at_size v (fun () ->
                       let a = Ssta.analyse_stage ?ff tech net in
                       (a.Ssta.total.Gd.nominal, Gd.total_sigma a.Ssta.total))
                 in
                 let mu0, sg0 = moments_at x in
                 let mu_p, sg_p = moments_at (x +. h) in
                 let mu_m, sg_m = moments_at (x -. h) in
                 let fd p m = (p -. m) /. (2.0 *. h) in
                 let say what iv v =
                   Printf.sprintf
                     "stage %d gate %d: %s %.9g outside enclosure %s (box \
                      [%.4g, %.4g])"
                     s g what v (Interval.to_string iv) (Interval.lo box)
                     (Interval.hi box)
                 in
                 let value_slack = 1e-9 *. Float.max 1.0 (Float.abs mu0) in
                 let deriv_slack f0 =
                   (1e-10 *. (Float.abs f0 +. 1.0) /. h) +. 1e-9
                 in
                 let enc_check what (e : Sens.enclosure) v0 d =
                   check Deriv
                     (Interval.contains ~slack:value_slack e.Sens.value v0)
                     (fun () -> say (what ^ " value") e.Sens.value v0);
                   if e.Sens.certified then
                     check Deriv
                       (Interval.contains ~slack:(deriv_slack v0) e.Sens.deriv
                          d)
                       (fun () -> say (what ^ " central FD") e.Sens.deriv d)
                 in
                 enc_check "mu" sens.Sens.s_mu mu0 (fd mu_p mu_m);
                 enc_check "sigma" sens.Sens.s_sigma sg0 (fd sg_p sg_m);
                 (* Yield through the Clark mirror, against the
                    closed-form estimator re-evaluated per stencil
                    point via refresh_stage. *)
                 if (not degenerate) && g = gids.(0) then begin
                   let t = mu +. sigma in
                   let enc =
                     Sens.ctx_yield ctx ~model:Sens.Clark ~stage:s
                       ~param:(Sens.Size g) ~box ~t_target:t
                   in
                   let yield_at v =
                     at_size v (fun () ->
                         let c = E.Ctx.refresh_stage ctx s in
                         (E.yield ~method_:E.Analytic_clark c ~t_target:t)
                           .E.value)
                   in
                   let y0 = yield_at x in
                   let y_p = yield_at (x +. h) in
                   let y_m = yield_at (x -. h) in
                   enc_check "clark yield" enc y0 (fd y_p y_m)
                 end)
               knobs)
           stage_list));
  (!run, List.rev !violations)

(* ---- fuzz cases ----------------------------------------------------- *)

type case = { gen_seed : int; max_gates : int }

type materialised = {
  circuits : Netlist.t array;
  process : Fuzz.process;
  n_mutations : int;
}

let materialise { gen_seed; max_gates } =
  let streams = Rng.split (Rng.create ~seed:gen_seed) 3 in
  let config = { Fuzz.default_config with Fuzz.max_gates } in
  let circuits = ref (Fuzz.generate ~config streams.(0)) in
  let n_mutations = Rng.int streams.(1) ~bound:4 in
  for _ = 1 to n_mutations do
    circuits := Fuzz.mutate ~config streams.(1) !circuits
  done;
  let process = Fuzz.random_process streams.(2) in
  { circuits = !circuits; process; n_mutations }

let ctx_of circuits process =
  E.Ctx.of_circuits (Fuzz.apply_process Tech.bptm70 process) circuits

type outcome = { case : case; checks_run : int; violations : violation list }

let run_case ?tolerances ?invariants ?macro_table ?materialised ~check_seed
    case =
  match
    Checked.protect ~where:"fuzz case" (fun () ->
        let m =
          match materialised with Some m -> m | None -> materialise case
        in
        let ctx = ctx_of m.circuits m.process in
        check_ctx ?tolerances ?invariants ?macro_table ctx ~seed:check_seed)
  with
  | Ok (checks_run, violations) -> { case; checks_run; violations }
  | Error err ->
      {
        case;
        checks_run = 1;
        violations = [ { invariant = Escape; detail = Errors.to_string err } ];
      }

(* ---- shrinking ------------------------------------------------------ *)

let still_violates ~tolerances ~invariant ~check_seed circuits process =
  let invariants =
    (* the Escape invariant only fires as the catcher of the other
       sections, so shrinking an escape runs everything *)
    if invariant = Escape then all_invariants else [ invariant ]
  in
  match
    Checked.protect ~where:"shrink candidate" (fun () ->
        let ctx = ctx_of circuits process in
        check_ctx ?tolerances ~invariants ctx ~seed:check_seed)
  with
  | Ok (_, vs) -> List.exists (fun v -> v.invariant = invariant) vs
  | Error _ -> invariant = Escape

(* Remove gate [g], rewiring its fanouts (and output role) to its
   first fanin; [None] when the removal is structurally impossible
   (last gate, or an output would become a primary input). *)
let remove_gate net g =
  match Netlist.node net g with
  | Netlist.Primary_input _ -> None
  | Netlist.Gate { fanin; _ } ->
      if Array.length (Netlist.gate_ids net) <= 1 then None
      else
        let f0 = fanin.(0) in
        let subst i = if i = g then f0 else if i > g then i - 1 else i in
        let orig_of i = if i >= g then i + 1 else i in
        let outputs = Array.map subst (Netlist.outputs net) in
        let output_ok =
          Array.for_all (fun o -> Netlist.is_gate net (orig_of o)) outputs
        in
        if not output_ok then None
        else begin
          let seen = Hashtbl.create 8 in
          let outputs =
            Array.of_list
              (List.filter
                 (fun o ->
                   if Hashtbl.mem seen o then false
                   else begin
                     Hashtbl.add seen o ();
                     true
                   end)
                 (Array.to_list outputs))
          in
          let n = Netlist.n_nodes net in
          let sizes = Netlist.sizes_snapshot net in
          let nodes' = ref [] and sizes' = ref [] in
          for i = 0 to n - 1 do
            if i <> g then begin
              (match Netlist.node net i with
              | Netlist.Primary_input _ as p -> nodes' := p :: !nodes'
              | Netlist.Gate { kind; fanin } ->
                  nodes' :=
                    Netlist.Gate { kind; fanin = Array.map subst fanin }
                    :: !nodes');
              sizes' := sizes.(i) :: !sizes'
            end
          done;
          try
            Some
              (Fuzz.promote_dangling
                 (Netlist.make ~name:(Netlist.name net)
                    ~nodes:(Array.of_list (List.rev !nodes'))
                    ~outputs
                    ~sizes:(Array.of_list (List.rev !sizes'))))
          with Invalid_argument _ -> None
        end

(* Collapse all of gate [g]'s fanins onto its first fanin; [None] when
   already uniform. *)
let collapse_fanins net g =
  match Netlist.node net g with
  | Netlist.Primary_input _ -> None
  | Netlist.Gate { kind; fanin } ->
      if Array.for_all (fun f -> f = fanin.(0)) fanin then None
      else
        let n = Netlist.n_nodes net in
        let nodes' = ref [] in
        for i = 0 to n - 1 do
          let node =
            if i = g then
              Netlist.Gate
                { kind; fanin = Array.make (Array.length fanin) fanin.(0) }
            else Netlist.node net i
          in
          nodes' := node :: !nodes'
        done;
        Some
          (Fuzz.promote_dangling
             (Netlist.make ~name:(Netlist.name net)
                ~nodes:(Array.of_list (List.rev !nodes'))
                ~outputs:(Netlist.outputs net)
                ~sizes:(Netlist.sizes_snapshot net)))

let shrink ?tolerances ?(max_attempts = 300) ~invariant ~check_seed circuits
    process =
  let attempts = ref 0 in
  let steps = ref 0 in
  let circuits = ref (Array.map Netlist.copy circuits) in
  let process = ref process in
  let budget () = !attempts < max_attempts in
  let try_candidate cs p =
    budget ()
    && begin
         incr attempts;
         still_violates ~tolerances ~invariant ~check_seed cs p
       end
  in
  let accept cs p =
    circuits := cs;
    process := p;
    incr steps
  in
  let changed = ref true in
  while !changed && budget () do
    changed := false;
    (* 1. remove whole stages (last first) *)
    let s = ref (Array.length !circuits - 1) in
    while !s >= 0 && budget () do
      if Array.length !circuits > 1 then begin
        let cand =
          Array.of_list
            (List.filteri (fun i _ -> i <> !s) (Array.to_list !circuits))
        in
        if try_candidate cand !process then begin
          accept cand !process;
          changed := true
        end
      end;
      decr s
    done;
    (* 2. remove gates, highest id first *)
    for st = 0 to Array.length !circuits - 1 do
      let continue = ref true in
      while !continue && budget () do
        continue := false;
        let net = !circuits.(st) in
        let gids = Netlist.gate_ids net in
        let i = ref (Array.length gids - 1) in
        while !i >= 0 && budget () && not !continue do
          (match remove_gate net gids.(!i) with
          | Some net' ->
              let cand = Array.copy !circuits in
              cand.(st) <- net';
              if try_candidate cand !process then begin
                accept cand !process;
                changed := true;
                continue := true
              end
          | None -> ());
          decr i
        done
      done
    done;
    (* 3. collapse fanins (kills reconvergent edges) *)
    for st = 0 to Array.length !circuits - 1 do
      let net = !circuits.(st) in
      let gids = Netlist.gate_ids net in
      let i = ref (Array.length gids - 1) in
      while !i >= 0 && budget () do
        (match collapse_fanins !circuits.(st) gids.(!i) with
        | Some net' ->
            let cand = Array.copy !circuits in
            cand.(st) <- net';
            if try_candidate cand !process then begin
              accept cand !process;
              changed := true
            end
        | None -> ());
        decr i
      done
    done;
    (* 4. drop process overrides *)
    List.iter
      (fun strip ->
        let p' = strip !process in
        if p' <> !process && budget () && try_candidate !circuits p' then begin
          accept !circuits p';
          changed := true
        end)
      [
        (fun p -> { p with Fuzz.inter_vth_mv = None });
        (fun p -> { p with Fuzz.random_vth_mv = None });
        (fun p -> { p with Fuzz.sys_vth_mv = None });
        (fun p -> { p with Fuzz.leff_rel_inter = None });
      ]
  done;
  (!circuits, !process, !steps)

(* ---- corpus filing -------------------------------------------------- *)

type finding = {
  found : case;
  check_seed : int;
  violation : violation;
  circuits : Netlist.t array;
  process : Fuzz.process;
  shrink_steps : int;
}

let one_line s =
  String.concat "; "
    (List.filter (fun x -> x <> "") (String.split_on_char '\n' s))

let finding_to_string f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "spv-fuzz-case v1\n";
  Printf.bprintf buf "invariant %s\n" (invariant_name f.violation.invariant);
  Printf.bprintf buf "gen_seed %d\n" f.found.gen_seed;
  Printf.bprintf buf "max_gates %d\n" f.found.max_gates;
  Printf.bprintf buf "check_seed %d\n" f.check_seed;
  Printf.bprintf buf "shrink_steps %d\n" f.shrink_steps;
  Printf.bprintf buf "process %s\n" (Fuzz.process_to_string f.process);
  Printf.bprintf buf "detail %s\n" (one_line f.violation.detail);
  Array.iteri
    (fun i net ->
      Printf.bprintf buf "stage %d\n" i;
      Buffer.add_string buf (Bench_format.to_string net))
    f.circuits;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let finding_of_string text =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' text in
  match lines with
  | magic :: rest when String.trim magic = "spv-fuzz-case v1" ->
      let header = Hashtbl.create 8 in
      let rec read_header = function
        | [] -> Error "missing stage sections"
        | line :: rest ->
            let line' = String.trim line in
            if line' = "" then read_header rest
            else
              let key, value =
                match String.index_opt line' ' ' with
                | None -> (line', "")
                | Some i ->
                    ( String.sub line' 0 i,
                      String.trim
                        (String.sub line' (i + 1) (String.length line' - i - 1))
                    )
              in
              if key = "stage" then Ok (line :: rest)
              else begin
                Hashtbl.replace header key value;
                read_header rest
              end
      in
      let* rest = read_header rest in
      let field k =
        match Hashtbl.find_opt header k with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing header field %S" k)
      in
      let int_field k =
        let* v = field k in
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "bad integer in header field %S" k)
      in
      let* inv_name = field "invariant" in
      let* invariant =
        match invariant_of_string inv_name with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "unknown invariant %S" inv_name)
      in
      let* gen_seed = int_field "gen_seed" in
      let* max_gates = int_field "max_gates" in
      let* check_seed = int_field "check_seed" in
      let* shrink_steps = int_field "shrink_steps" in
      let* process_text = field "process" in
      let* process = Fuzz.process_of_string process_text in
      let detail =
        match Hashtbl.find_opt header "detail" with Some d -> d | None -> ""
      in
      (* split the remainder into per-stage bench chunks *)
      let stages = ref [] in
      let current = Buffer.create 256 in
      let in_stage = ref false in
      let flush () =
        if !in_stage then stages := Buffer.contents current :: !stages;
        Buffer.clear current
      in
      List.iter
        (fun line ->
          let t = String.trim line in
          if String.length t >= 6 && String.sub t 0 6 = "stage " then begin
            flush ();
            in_stage := true
          end
          else if t = "end" then flush ()
          else if !in_stage then begin
            Buffer.add_string current line;
            Buffer.add_char current '\n'
          end)
        rest;
      let chunks = List.rev !stages in
      if chunks = [] then Error "no stage sections"
      else
        let* circuits =
          List.fold_left
            (fun acc (i, chunk) ->
              let* acc = acc in
              match
                Bench_format.of_string_result
                  ~name:(Printf.sprintf "fz%d" i) chunk
              with
              | Ok net -> Ok (net :: acc)
              | Error e ->
                  Error
                    (Printf.sprintf "stage %d: %s" i
                       (Bench_format.parse_error_to_string e)))
            (Ok [])
            (List.mapi (fun i c -> (i, c)) chunks)
        in
        Ok
          {
            found = { gen_seed; max_gates };
            check_seed;
            violation = { invariant; detail };
            circuits = Array.of_list (List.rev circuits);
            process;
            shrink_steps;
          }
  | _ -> Error "not a spv-fuzz-case v1 file"

let file_finding ~dir f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir
      (Printf.sprintf "fuzz-%s-seed%d.repro"
         (invariant_name f.violation.invariant)
         f.found.gen_seed)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (finding_to_string f));
  path
