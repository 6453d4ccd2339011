module Bf = Spv_circuit.Bench_format
module Net = Spv_circuit.Netlist
open Errors

(* ---- source-level lint (raw .bench statements) ---------------------- *)

(* Works on the statement stream rather than a built Netlist.t because
   the defects it hunts — combinational loops, multiple drivers,
   undefined signals — are exactly the ones a valid Netlist.t cannot
   represent. *)
let check_source statements =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let inputs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let defs : (string, int * string list) Hashtbl.t = Hashtbl.create 64 in
  let outputs = ref [] in
  let defined signal = Hashtbl.mem inputs signal || Hashtbl.mem defs signal in
  let first_line signal =
    match Hashtbl.find_opt inputs signal with
    | Some l -> Some l
    | None -> Option.map fst (Hashtbl.find_opt defs signal)
  in
  List.iter
    (fun (lineno, st) ->
      match st with
      | Bf.St_input signal ->
          if defined signal then
            emit
              (diagnostic ~code:"multiple-driver" ~signal ~line:lineno
                 (Printf.sprintf "%S is already driven (first at line %d)"
                    signal
                    (Option.value ~default:0 (first_line signal))))
          else Hashtbl.add inputs signal lineno
      | Bf.St_output signal -> outputs := (lineno, signal) :: !outputs
      | Bf.St_def { signal; args; _ } ->
          if defined signal then
            emit
              (diagnostic ~code:"multiple-driver" ~signal ~line:lineno
                 (Printf.sprintf "%S is already driven (first at line %d)"
                    signal
                    (Option.value ~default:0 (first_line signal))))
          else begin
            Hashtbl.add defs signal (lineno, args);
            if args = [] then
              emit
                (diagnostic ~code:"zero-fanin" ~signal ~line:lineno
                   (Printf.sprintf "gate %S has no inputs" signal))
          end)
    statements;
  let outputs = List.rev !outputs in
  if Hashtbl.length defs = 0 && Hashtbl.length inputs = 0 && outputs = [] then
    emit (diagnostic ~code:"empty-circuit" "no statements");
  if outputs = [] then
    emit (diagnostic ~code:"no-outputs" "no OUTPUT statements")
  else if Hashtbl.length defs = 0 then
    emit (diagnostic ~code:"empty-circuit" "circuit contains no gates");
  (* Undefined references. *)
  Hashtbl.iter
    (fun signal (lineno, args) ->
      List.iter
        (fun a ->
          if not (defined a) then
            emit
              (diagnostic ~code:"undefined-signal" ~signal:a ~line:lineno
                 (Printf.sprintf "%S (input of %S) is never driven" a signal)))
        args)
    defs;
  let seen_outputs : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (lineno, signal) ->
      if Hashtbl.mem seen_outputs signal then
        emit
          (diagnostic ~severity:Warn ~code:"duplicate-output" ~signal
             ~line:lineno
             (Printf.sprintf "OUTPUT(%s) repeated" signal))
      else begin
        Hashtbl.add seen_outputs signal ();
        if not (defined signal) then
          emit
            (diagnostic ~code:"undefined-signal" ~signal ~line:lineno
               (Printf.sprintf "output %S is never driven" signal))
      end)
    outputs;
  (* Combinational loops: colour DFS over the definition graph.  Each
     cycle is reported once, at its first signal in DFS order. *)
  let colour : (string, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 64 in
  let rec visit signal =
    match Hashtbl.find_opt colour signal with
    | Some `Black -> ()
    | Some `Grey ->
        let line = Option.map fst (Hashtbl.find_opt defs signal) in
        emit
          (diagnostic ~code:"combinational-loop" ~signal ?line
             (Printf.sprintf "combinational cycle through %S" signal));
        Hashtbl.replace colour signal `Black
    | None -> (
        match Hashtbl.find_opt defs signal with
        | None -> ()
        | Some (_, args) ->
            Hashtbl.replace colour signal `Grey;
            List.iter visit args;
            (* May already be blackened by the cycle report above. *)
            Hashtbl.replace colour signal `Black)
  in
  Hashtbl.iter (fun signal _ -> visit signal) defs;
  (* Dangling definitions and unused inputs. *)
  let used : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (_, args) -> List.iter (fun a -> Hashtbl.replace used a ()) args)
    defs;
  List.iter (fun (_, signal) -> Hashtbl.replace used signal ()) outputs;
  Hashtbl.iter
    (fun signal (lineno, _) ->
      if not (Hashtbl.mem used signal) then
        emit
          (diagnostic ~severity:Warn ~code:"dangling-signal" ~signal
             ~line:lineno
             (Printf.sprintf
                "%S drives nothing and is not an output" signal)))
    defs;
  Hashtbl.iter
    (fun signal lineno ->
      if not (Hashtbl.mem used signal) then
        emit
          (diagnostic ~severity:Warn ~code:"unused-input" ~signal ~line:lineno
             (Printf.sprintf "input %S is never used" signal)))
    inputs;
  (* Stable order: by line, then code, for reproducible reports. *)
  List.sort
    (fun a b ->
      match compare a.line b.line with 0 -> compare a.code b.code | c -> c)
    !diags

(* ---- netlist-level lint (post-construction structure) --------------- *)

let node_name net id =
  match Net.node net id with
  | Net.Primary_input label -> label
  | Net.Gate _ -> Printf.sprintf "n%d" id

let check_netlist net =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let n = Net.n_nodes net in
  if Net.n_gates net = 0 then
    emit (diagnostic ~code:"empty-circuit" "circuit contains no gates");
  (* A node reaches an output iff its longest path to one is finite. *)
  let down = Spv_circuit.Sta.down net (Array.make n 0.0) in
  let reachable = Array.map (fun d -> d > neg_infinity) down in
  Array.iter
    (fun id ->
      if not reachable.(id) then
        emit
          (diagnostic ~severity:Warn ~code:"unreachable-gate"
             ~signal:(node_name net id)
             (Printf.sprintf "gate %s feeds no primary output"
                (node_name net id))))
    (Net.gate_ids net);
  Array.iter
    (fun id ->
      if Net.n_fanouts net id = 0 && not reachable.(id) then
        emit
          (diagnostic ~severity:Warn ~code:"unused-input"
             ~signal:(node_name net id)
             (Printf.sprintf "input %s is never used" (node_name net id))))
    (Net.input_ids net);
  Array.iter
    (fun id ->
      let size = Net.size net id in
      if not (Float.is_finite size && size > 0.0) then
        emit
          (diagnostic ~code:"bad-size" ~signal:(node_name net id)
             (Printf.sprintf "gate %s has non-positive or non-finite size %g"
                (node_name net id) size)))
    (Net.gate_ids net);
  List.rev !diags

(* ---- helpers -------------------------------------------------------- *)

let errors diags = List.filter (fun d -> d.severity = Err) diags
let warnings diags = List.filter (fun d -> d.severity = Warn) diags
let has_errors diags = List.exists (fun d -> d.severity = Err) diags

let check_bench_text ?path text =
  match Bf.statements_of_string text with
  | Error e -> Error (Errors.of_parse_error ?path e)
  | Ok statements -> Ok (check_source statements)
