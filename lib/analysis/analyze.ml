module Engine = Spv_engine.Engine

type result = {
  report : Report.t;
  bounds : Bounds.t;
  affine : Affine_sta.t;
  criticality : Static_criticality.t array option;
  cones : Cones.t;
  sensitivity : Dominance.t;
}

let verdict_findings ~pass ~what ~t_target checks =
  List.map
    (fun (label, verdict, (e : Engine.estimate)) ->
      let base_data =
        [
          ("method", Report.Text label);
          ("value", Report.Num e.value);
          ("t_target", Report.Num t_target);
        ]
      in
      match verdict with
      | Bounds.Pass { bound; slack } ->
          Report.finding ~pass
            ~data:
              (base_data
              @ [
                  ("lo", Report.Num (Interval.lo bound));
                  ("hi", Report.Num (Interval.hi bound));
                  ("slack", Report.Num slack);
                ])
            (Printf.sprintf "estimate within %s" what)
      | Bounds.Fail { bound; slack; excess; _ } ->
          Report.finding ~severity:Report.Error ~pass
            ~data:
              (base_data
              @ [
                  ("lo", Report.Num (Interval.lo bound));
                  ("hi", Report.Num (Interval.hi bound));
                  ("slack", Report.Num slack);
                  ("excess", Report.Num excess);
                ])
            (Printf.sprintf "estimate OUTSIDE %s" what))
    checks

let estimate_findings ~ctx bounds affine ~t_target =
  let estimates =
    List.map
      (fun method_ ->
        (Engine.method_name method_, Engine.yield ~method_ ctx ~t_target))
      [ Engine.Analytic_clark; Engine.Exact_independent; Engine.Quadrature ]
  in
  let against ~pass ~what check =
    verdict_findings ~pass ~what ~t_target
      (List.map (fun (label, e) -> (label, check e, e)) estimates)
  in
  against ~pass:"bounds-check" ~what:"Fréchet yield bounds"
    (Bounds.check ~t_target bounds)
  @ against ~pass:"affine-check" ~what:"affine yield envelope"
      (Affine_sta.check ~t_target affine)

(* The hierarchical pass deliberately runs on its own context and
   reports gaps as data instead of re-running the bounds/affine checks
   against the macro model: those checks certify the flat analyses,
   and a macro-model value sitting outside a flat certificate is the
   expected model gap, not an analysis error. *)
let hier_findings ?t_target ctx =
  let pass = "hier" in
  if not (Engine.Ctx.gate_level ctx) then
    [
      Report.finding ~severity:Report.Warn ~pass
        "hierarchical pass skipped: moments-only context has no netlists";
    ]
  else
    let hctx =
      match Engine.Ctx.mode ctx with
      | Engine.Hierarchical -> ctx
      | Engine.Flat ->
          let n = Engine.Ctx.n_stages ctx in
          let nets = Array.init n (Engine.Ctx.netlist ctx) in
          Engine.Ctx.of_circuits ~mode:Engine.Hierarchical
            ~pitch:(Engine.Ctx.pitch ctx) ?ff:(Engine.Ctx.flipflop ctx)
            (Engine.Ctx.tech ctx) nets
    in
    let flat =
      match Engine.Ctx.flat_reference hctx with
      | Some p -> p
      | None -> assert false (* hctx is hierarchical by construction *)
    in
    let module P = Spv_core.Pipeline in
    let module St = Spv_core.Stage in
    let module G = Spv_stats.Gaussian in
    let stage_findings =
      List.init (Engine.Ctx.n_stages hctx) (fun i ->
          let h = St.gaussian (P.stage (Engine.Ctx.pipeline hctx) i) in
          let f = St.gaussian (P.stage flat i) in
          Report.finding ~pass
            ~data:
              [
                ("stage", Report.Num (float_of_int i));
                ("blocks", Report.Num (float_of_int (Engine.Ctx.n_blocks hctx i)));
                ("mu_gap", Report.Num (Float.abs (G.mu h -. G.mu f)));
                ("sigma_gap", Report.Num (Float.abs (G.sigma h -. G.sigma f)));
              ]
            (Printf.sprintf "stage %d composed from %d block macro(s)" i
               (Engine.Ctx.n_blocks hctx i)))
    in
    let pipeline_finding =
      match t_target with
      | None ->
          let e = Engine.delay_mean ~method_:Engine.Analytic_clark hctx in
          Report.finding ~pass
            ~data:
              [
                ("mean", Report.Num e.Engine.value);
                ( "hier_bound",
                  Report.Num (Option.value ~default:0.0 e.Engine.hier_bound) );
              ]
            "hierarchical mean delay vs flat reference"
      | Some t_target ->
          let e = Engine.yield ~method_:Engine.Analytic_clark hctx ~t_target in
          Report.finding ~pass
            ~data:
              [
                ("yield", Report.Num e.Engine.value);
                ("t_target", Report.Num t_target);
                ( "hier_bound",
                  Report.Num (Option.value ~default:0.0 e.Engine.hier_bound) );
              ]
            "hierarchical clark yield vs flat reference"
    in
    stage_findings @ [ pipeline_finding ]

let run ?k ?t_target ?(hier = false) ctx =
  (* The affine pass builds the interval bounds and the cone pass the
     corner proofs: read both back instead of re-running their corner
     STAs. *)
  let affine = Affine_sta.of_ctx ?k ctx in
  let bounds = affine.Affine_sta.bounds in
  let gate = Engine.Ctx.gate_level ctx in
  let n = Engine.Ctx.n_stages ctx in
  let bounds_findings = Bounds.findings bounds in
  let affine_findings = Affine_sta.findings ?t_target affine in
  let pipeline_findings =
    Structure.pipeline_findings (Engine.Ctx.pipeline ctx)
  in
  let reconv_findings =
    if not gate then []
    else
      List.concat
        (List.init n (fun i ->
             Structure.netlist_findings ~stage:i (Engine.Ctx.netlist ctx i)))
  in
  let cones = Cones.analyse ?k ?t_target ctx in
  let criticality =
    Option.map
      (Array.map (fun sg -> sg.Cones.sg_static))
      cones.Cones.co_gates
  in
  let crit_findings =
    match criticality with
    | None -> []
    | Some cs ->
        List.concat
          (List.mapi
             (fun i c -> Static_criticality.findings ~stage:i c)
             (Array.to_list cs))
  in
  let cone_findings = Cones.findings cones in
  let sensitivity = Dominance.analyse ?t_target ctx in
  let sens_findings = Dominance.findings sensitivity in
  let check_findings =
    match t_target with
    | None -> []
    | Some t_target -> estimate_findings ~ctx bounds affine ~t_target
  in
  let hier_findings =
    if not hier then [] else hier_findings ?t_target ctx
  in
  let report =
    Report.sorted
      (Report.of_findings
         (bounds_findings @ affine_findings @ pipeline_findings
        @ reconv_findings @ crit_findings @ cone_findings @ sens_findings
        @ check_findings @ hier_findings))
  in
  { report; bounds; affine; criticality; cones; sensitivity }
