module Engine = Spv_engine.Engine
module Net = Spv_circuit.Netlist
module Sta = Spv_circuit.Sta
module Hook = Spv_sizing.Sens_hook
module I = Interval

(* The probe acceptance test is [trial > current +. 1e-9]; requiring
   the certified upper bound to sit at or below [current +. 5e-10]
   leaves half the acceptance headroom to absorb the ulp-level gap
   between the interval mirror and the concrete estimator. *)
let yield_skip (e : Hook.yield_skip_env) =
  match
    Sensitivity.yield_upper_bound_over_box e.Hook.ye_ctx
      ~model:Sensitivity.Independent_product
      ~stage:e.Hook.ye_stage ~lo:e.Hook.ye_min_size ~hi:e.Hook.ye_max_size
      ~t_target:e.Hook.ye_t_target
  with
  | Some upper -> upper <= e.Hook.ye_current +. 5e-10
  | None -> false
  | exception _ -> false

let install_sizing_prune () = Hook.register_yield_skip yield_skip

type gate_cert = {
  gc_stage : int;
  gc_node : int;
  gc_size : float;
  gc_box : I.t;
  gc_mu : Sensitivity.enclosure;
  gc_sigma : Sensitivity.enclosure;
  gc_yield : Sensitivity.enclosure option;
}

type t = { gate_level : bool; certs : gate_cert list }

let take k l =
  let rec go k = function
    | x :: rest when k > 0 -> x :: go (k - 1) rest
    | _ -> []
  in
  go k l

(* The relative size box of each certificate: the greedy sizer's step. *)
let box_factor = 1.3

let analyse ?(k = 4) ?t_target ctx =
  if k < 1 then invalid_arg "Dominance.analyse: k < 1";
  if not (Engine.Ctx.gate_level ctx) then { gate_level = false; certs = [] }
  else begin
    let n = Engine.Ctx.n_stages ctx in
    let cache = Sensitivity.Cache.create () in
    let certs =
      List.concat
        (List.init n (fun i ->
             let net = Engine.Ctx.netlist ctx i in
             let sta = Sta.run (Engine.Ctx.tech ctx) net in
             let knobs =
               take k
                 (List.filter (fun g -> Net.is_gate net g)
                    sta.Sta.critical_path)
             in
             List.map
               (fun g ->
                 let size = Net.size net g in
                 let box =
                   I.make ~lo:(size /. box_factor) ~hi:(size *. box_factor)
                 in
                 let s =
                   Sensitivity.ctx_stage ~cache ctx ~stage:i
                     ~param:(Sensitivity.Size g) ~box
                 in
                 let gc_yield =
                   Option.map
                     (fun t_target ->
                       Sensitivity.ctx_yield ~cache ctx
                         ~model:Sensitivity.Clark ~stage:i
                         ~param:(Sensitivity.Size g) ~box ~t_target)
                     t_target
                 in
                 {
                   gc_stage = i;
                   gc_node = g;
                   gc_size = size;
                   gc_box = box;
                   gc_mu = s.Sensitivity.s_mu;
                   gc_sigma = s.Sensitivity.s_sigma;
                   gc_yield;
                 })
               knobs))
    in
    { gate_level = true; certs }
  end

let sign_word = function
  | Some Sensitivity.Increasing -> "increasing"
  | Some Sensitivity.Decreasing -> "decreasing"
  | None -> "mixed-sign"

let findings t =
  let pass = "sensitivity" in
  if not t.gate_level then
    [
      Report.finding ~severity:Report.Warn ~pass
        "sensitivity pass skipped: moments-only context has no netlists";
    ]
  else
    let enc_data name (e : Sensitivity.enclosure) =
      [
        (name ^ "_lo", Report.Num (I.lo e.Sensitivity.deriv));
        (name ^ "_hi", Report.Num (I.hi e.Sensitivity.deriv));
        (name ^ "_certified", Report.Num (if e.Sensitivity.certified then 1.0 else 0.0));
      ]
    in
    let per_knob =
      List.map
        (fun c ->
          let data =
            [
              ("stage", Report.Num (float_of_int c.gc_stage));
              ("node", Report.Num (float_of_int c.gc_node));
              ("size", Report.Num c.gc_size);
              ("box_lo", Report.Num (I.lo c.gc_box));
              ("box_hi", Report.Num (I.hi c.gc_box));
            ]
            @ enc_data "dmu" c.gc_mu
            @ enc_data "dsigma" c.gc_sigma
            @ (match c.gc_yield with
              | None -> []
              | Some y -> enc_data "dyield" y)
          in
          let certified = c.gc_mu.Sensitivity.certified in
          Report.finding ~pass ~data
            (Printf.sprintf
               "stage %d gate %d: d(mu)/d(size) %s over [%.3g, %.3g]%s"
               c.gc_stage c.gc_node
               (if certified then
                  sign_word (Sensitivity.monotone_sign c.gc_mu)
                else "uncertified (critical path may switch)")
               (I.lo c.gc_box) (I.hi c.gc_box)
               (match c.gc_yield with
               | Some y when y.Sensitivity.certified -> "; yield derivative certified"
               | _ -> "")))
        t.certs
    in
    let n = List.length t.certs in
    let n_cert =
      List.length
        (List.filter (fun c -> c.gc_mu.Sensitivity.certified) t.certs)
    in
    let n_mono =
      List.length
        (List.filter
           (fun c -> Sensitivity.monotone_sign c.gc_mu <> None)
           t.certs)
    in
    Report.finding ~pass
      ~data:
        [
          ("knobs", Report.Num (float_of_int n));
          ("certified", Report.Num (float_of_int n_cert));
          ("monotone", Report.Num (float_of_int n_mono));
        ]
      (Printf.sprintf
         "sensitivity: %d/%d size knobs certified over the design box, %d \
          monotone"
         n_cert n n_mono)
    :: per_knob
