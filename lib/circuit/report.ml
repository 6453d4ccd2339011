module Gd = Spv_process.Gate_delay

type path = {
  gates : int list;
  nominal : float;
  statistical : Gd.t;
}

(* Best-first enumeration states: [Extend] is a prefix about to absorb
   its head gate; [Emit] is a complete path queued at its exact total
   delay so that paths pop in exact descending order. *)
type state =
  | Extend of { rev_gates : int list; acc : float; head : int }
  | Emit of { rev_gates : int list; total : float }

let k_longest_paths tech net ~k =
  if k <= 0 then invalid_arg "Report.k_longest_paths: k <= 0";
  let sta = Sta.run tech net in
  let delays = sta.Sta.gate_delays in
  (* suffix v: largest achievable remaining delay from gate v (inclusive
     of v's own delay) to some primary output, following gate fanouts. *)
  let down = Sta.down net delays in
  let suffix v = delays.(v) +. down.(v) in
  (* Entry gates: gates with at least one primary-input fanin (a path
     begins where data enters the cloud). *)
  let heap = Spv_stats.Heap.create () in
  Array.iter
    (fun v ->
      match Netlist.node net v with
      | Netlist.Primary_input _ -> ()
      | Netlist.Gate { fanin; _ } ->
          if
            Array.exists (fun f -> not (Netlist.is_gate net f)) fanin
            && suffix v > neg_infinity
          then
            Spv_stats.Heap.push heap ~priority:(suffix v)
              (Extend { rev_gates = []; acc = 0.0; head = v }))
    (Netlist.gate_ids net);
  let results = ref [] in
  let count = ref 0 in
  while !count < k && not (Spv_stats.Heap.is_empty heap) do
    match Spv_stats.Heap.pop heap with
    | None -> ()
    | Some (_, Emit { rev_gates; total }) ->
        incr count;
        let gates = List.rev rev_gates in
        let statistical =
          Ssta.compose_path tech net ~gate_delays:delays gates
        in
        results := { gates; nominal = total; statistical } :: !results
    | Some (_, Extend { rev_gates; acc; head }) ->
        let acc = acc +. delays.(head) in
        let rev_gates = head :: rev_gates in
        (* Ending at an output and continuing through fanouts are
           distinct paths; schedule both. *)
        if Netlist.is_output net head then
          Spv_stats.Heap.push heap ~priority:acc (Emit { rev_gates; total = acc });
        (* A gate reading [head] on several pins is one consumer: its
           fanout entries are adjacent, so skip repeats. *)
        let prev = ref (-1) in
        Netlist.iter_fanouts net head (fun f ->
            if f <> !prev && suffix f > neg_infinity then
              Spv_stats.Heap.push heap
                ~priority:(acc +. suffix f)
                (Extend { rev_gates; acc; head = f });
            prev := f)
  done;
  Array.of_list (List.rev !results)

let path_yield path ~t_target =
  Spv_stats.Gaussian.cdf (Gd.to_gaussian path.statistical) t_target

let render ?(k = 5) ?t_target tech net =
  (match t_target with
  | Some t when not (Float.is_finite t) ->
      invalid_arg "Report.render: non-finite t_target"
  | _ -> ());
  let buf = Buffer.create 1024 in
  let sta = Sta.run tech net in
  Buffer.add_string buf
    (Format.asprintf "%a@." Netlist.pp_stats net);
  Buffer.add_string buf
    (Printf.sprintf "critical delay %.1f ps, logic depth %d\n" sta.Sta.delay
       (Topo.depth net));
  let paths = k_longest_paths tech net ~k in
  Buffer.add_string buf (Printf.sprintf "top %d paths:\n" (Array.length paths));
  Array.iteri
    (fun rank p ->
      let g = Gd.to_gaussian p.statistical in
      let yield_txt =
        match t_target with
        | None -> ""
        | Some t ->
            Printf.sprintf "  P(<= %.0f ps) = %5.1f%%" t
              (100.0 *. path_yield p ~t_target:t)
      in
      Buffer.add_string buf
        (Printf.sprintf "  #%d %8.1f ps  ~N(%.1f, %.2f)  %d gates%s\n"
           (rank + 1) p.nominal (Spv_stats.Gaussian.mu g)
           (Spv_stats.Gaussian.sigma g) (List.length p.gates) yield_txt))
    paths;
  let block = Block_ssta.run tech net in
  let ranked =
    Array.to_list (Netlist.gate_ids net)
    |> List.map (fun i -> (i, block.Block_ssta.criticality.(i)))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Buffer.add_string buf "most critical gates (block SSTA):\n";
  List.iteri
    (fun rank (i, c) ->
      if rank < 5 then
        match Netlist.node net i with
        | Netlist.Gate { kind; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "  n%d (%s, size %.2g): criticality %.3f\n" i
                 (Cell.name kind) (Netlist.size net i) c)
        | Netlist.Primary_input _ -> ())
    ranked;
  Buffer.contents buf
