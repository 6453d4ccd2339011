module Gd = Spv_process.Gate_delay

type result = {
  arrivals : Canonical.t array;
  output : Canonical.t;
  criticality : float array;
}

let run tech net =
  let n = Netlist.n_nodes net in
  (* Clark max with dominance bookkeeping over [w]: the running max's
     contributors w.(first .. e-1) share its tightness t, the newcomer
     w.(e) gets 1 - t. *)
  let absorb w ~first e acc b =
    let t = Canonical.tightness acc b in
    for e' = first to e - 1 do
      w.(e') <- w.(e') *. t
    done;
    w.(e) <- 1.0 -. t;
    Canonical.max acc b
  in
  (* Forward: arrival = Clark max over fanin arrivals + own delay, with
     a weight per fanin edge in CSR order.  [forward] visits the edges
     once, in that order, so a running cursor is the edge index. *)
  let weights = Array.make (Array.length (Netlist.fanin_ids net)) 0.0 in
  let edge = ref 0 and first = ref 0 in
  let arrivals =
    Sta.forward
      (module struct
        type t = Canonical.t

        let input _ = Canonical.zero

        let start a =
          first := !edge;
          weights.(!edge) <- 1.0;
          incr edge;
          a

        let join acc b =
          let m = absorb weights ~first:!first !edge acc b in
          incr edge;
          m

        let gate i latest =
          Canonical.add latest
            (Canonical.of_gate_delay
               (Gd.of_nominal tech ~nominal:(Sta.gate_delay tech net i)
                  ~size:(Netlist.size net i)))
      end)
      net
  in
  (* Max over primary outputs, with the same dominance bookkeeping. *)
  let outputs = Netlist.outputs net in
  let out_weights = Array.make (Array.length outputs) 1.0 in
  let output = ref arrivals.(outputs.(0)) in
  for k = 1 to Array.length outputs - 1 do
    output := absorb out_weights ~first:0 k !output arrivals.(outputs.(k))
  done;
  (* Backward criticality: distribute each node's criticality over its
     fanins with the recorded tightness weights. *)
  let criticality = Array.make n 0.0 in
  Array.iteri
    (fun k o -> criticality.(o) <- criticality.(o) +. out_weights.(k))
    outputs;
  let fanin_start = Netlist.fanin_start net in
  let fanin_ids = Netlist.fanin_ids net in
  for i = n - 1 downto 0 do
    if criticality.(i) > 0.0 then
      for e = fanin_start.(i) to fanin_start.(i + 1) - 1 do
        let f = fanin_ids.(e) in
        criticality.(f) <- criticality.(f) +. (criticality.(i) *. weights.(e))
      done
  done;
  { arrivals; output = !output; criticality }

let stage_delay ?ff tech net =
  let r = run tech net in
  let comb = Canonical.to_gate_delay r.output in
  match ff with
  | None -> comb
  | Some ff -> Gd.add comb (Spv_process.Flipflop.overhead ff)

let compare_with_path_based ?ff tech net =
  let path = Ssta.stage_gaussian ?ff tech net in
  let block = Gd.to_gaussian (stage_delay ?ff tech net) in
  (path, block)
