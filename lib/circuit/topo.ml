let levels net =
  let n = Netlist.n_nodes net in
  let levels = Array.make n 0 in
  for i = 0 to n - 1 do
    match Netlist.node net i with
    | Netlist.Primary_input _ -> levels.(i) <- 0
    | Netlist.Gate { fanin; _ } ->
        levels.(i) <-
          1 + Array.fold_left (fun acc f -> Stdlib.max acc levels.(f)) 0 fanin
  done;
  levels

let depth net = Array.fold_left Stdlib.max 0 (levels net)
