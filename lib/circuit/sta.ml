module type DOMAIN = sig
  type t

  val input : int -> t
  val start : t -> t
  val join : t -> t -> t
  val gate : int -> t -> t
end

module type BACKWARD = sig
  type t

  val seed : int -> t
  val join : t -> int -> t -> t
  val finish : int -> t -> t
end

let forward (type a) (module D : DOMAIN with type t = a) net =
  let n = Netlist.n_nodes net in
  let start = Netlist.fanin_start net and ids = Netlist.fanin_ids net in
  (* Node 0 is always a primary input: a gate needs a lower fanin. *)
  let values = Array.make n (D.input 0) in
  for i = 1 to n - 1 do
    let lo = start.(i) and hi = start.(i + 1) in
    if lo = hi then values.(i) <- D.input i
    else begin
      let acc = ref (D.start values.(ids.(lo))) in
      for e = lo + 1 to hi - 1 do
        acc := D.join !acc values.(ids.(e))
      done;
      values.(i) <- D.gate i !acc
    end
  done;
  values

let backward (type a) (module D : BACKWARD with type t = a) net =
  let n = Netlist.n_nodes net in
  (* The last node has no consumers: every consumer has a higher id. *)
  let values = Array.make n (D.finish (n - 1) (D.seed (n - 1))) in
  for i = n - 2 downto 0 do
    let acc = ref (D.seed i) in
    Netlist.iter_fanouts net i (fun g -> acc := D.join !acc g values.(g));
    values.(i) <- D.finish i !acc
  done;
  values

let down net gate_delays =
  backward
    (module struct
      type t = float

      let seed i = if Netlist.is_output net i then 0.0 else neg_infinity

      let join acc g down_g =
        let via = gate_delays.(g) +. down_g in
        if via > acc then via else acc

      let finish _ acc = acc
    end)
    net

type result = {
  arrival : float array;
  gate_delays : float array;
  delay : float;
  critical_output : int;
  critical_path : int list;
}

let gate_delay (tech : Spv_process.Tech.t) net i =
  match Netlist.node net i with
  | Netlist.Primary_input _ -> 0.0
  | Netlist.Gate { kind; _ } ->
      let load = (Netlist.loads net).(i) in
      tech.tau *. (Cell.parasitic kind +. (load /. Netlist.size net i))

(* First-index-wins extreme of [values] over [ids]. *)
let argbest better values ids =
  Array.fold_left
    (fun best o -> if better values.(o) values.(best) then o else best)
    ids.(0) ids

(* Gate ids of the path into [out] through the extreme fanin at every
   step, input side first. *)
let trace better net values out =
  let rec go i acc =
    match Netlist.node net i with
    | Netlist.Primary_input _ -> acc
    | Netlist.Gate { fanin; _ } -> go (argbest better values fanin) (i :: acc)
  in
  go out []

(* Float STA over [forward]: [seed] folds into the first fanin's
   arrival, [join] is the max (late mode) or min (early mode) and
   [better] the matching comparison that picks the output and traces
   its path. *)
let float_sta tech net ~seed ~join ~better ~factors =
  let gate_delays = Array.make (Netlist.n_nodes net) 0.0 in
  let arrival =
    forward
      (module struct
        type t = float

        let input _ = 0.0
        let start a = join seed a
        let join = join

        let gate i latest =
          let d = gate_delay tech net i in
          let d = match factors with None -> d | Some f -> d *. f.(i) in
          gate_delays.(i) <- d;
          latest +. d
      end)
      net
  in
  let out = argbest better arrival (Netlist.outputs net) in
  {
    arrival;
    gate_delays;
    delay = arrival.(out);
    critical_output = out;
    critical_path = trace better net arrival out;
  }

(* The float fast path of [forward] for Monte-Carlo trials: the late
   fold of [float_sta] over per-node gate delays, writing arrivals into
   the caller's scratch and keeping only the worst output. *)
let late_delay net ~delays ~arrival =
  let n = Netlist.n_nodes net in
  if Float.Array.length delays < n || Float.Array.length arrival < n then
    invalid_arg "Sta.late_delay: scratch shorter than the netlist";
  let start = Netlist.fanin_start net and ids = Netlist.fanin_ids net in
  Float.Array.unsafe_set arrival 0 0.0;
  for i = 1 to n - 1 do
    let lo = start.(i) and hi = start.(i + 1) in
    if lo = hi then Float.Array.unsafe_set arrival i 0.0
    else begin
      let acc = ref (Float.max 0.0 (Float.Array.unsafe_get arrival ids.(lo))) in
      for e = lo + 1 to hi - 1 do
        acc := Float.max !acc (Float.Array.unsafe_get arrival ids.(e))
      done;
      Float.Array.unsafe_set arrival i (!acc +. Float.Array.unsafe_get delays i)
    end
  done;
  let outs = Netlist.outputs net in
  let worst = ref (Float.Array.unsafe_get arrival outs.(0)) in
  for k = 1 to Array.length outs - 1 do
    let a = Float.Array.unsafe_get arrival outs.(k) in
    if a > !worst then worst := a
  done;
  !worst

let later (a : float) b = a > b
let earlier (a : float) b = a < b

let run tech net =
  float_sta tech net ~seed:0.0 ~join:Float.max ~better:later ~factors:None

let run_with_factors tech net ~factors =
  if Array.length factors <> Netlist.n_nodes net then
    invalid_arg "Sta.run_with_factors: factors length mismatch";
  float_sta tech net ~seed:0.0 ~join:Float.max ~better:later
    ~factors:(Some factors)

let run_min tech net =
  float_sta tech net ~seed:infinity ~join:Float.min ~better:earlier
    ~factors:None
