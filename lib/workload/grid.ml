module Engine = Spv_engine.Engine

type source =
  | Moments of {
      label : string;
      stages : (float * float) array;
      rho : float;
    }
  | Circuit of { label : string; net : Spv_circuit.Netlist.t }

type process = { p_label : string; inter_vth_mv : float option }

type t = {
  sources : source list;
  processes : process list;
  targets : float array;
  methods : Engine.method_ list;
  n : int;
  shards : int;
}

let nominal = { p_label = "nominal"; inter_vth_mv = None }

let source_label = function
  | Moments { label; _ } -> label
  | Circuit { label; _ } -> label

let builtin_circuits =
  [
    ("c432", fun () -> Spv_circuit.Generators.c432 ());
    ("c1908", fun () -> Spv_circuit.Generators.c1908 ());
    ("c2670", fun () -> Spv_circuit.Generators.c2670 ());
    ("c3540", fun () -> Spv_circuit.Generators.c3540 ());
    ("rca8", fun () -> Spv_circuit.Generators.ripple_carry_adder ~bits:8);
    ("alu8", fun () -> Spv_circuit.Generators.alu_slice ~bits:8 ());
    ("dec4", fun () -> Spv_circuit.Generators.decoder ~select:4 ());
    ("chain10", fun () -> Spv_circuit.Generators.inverter_chain ~depth:10 ());
  ]

let builtin_lookup name =
  match List.assoc_opt name builtin_circuits with
  | Some f -> Ok (f ())
  | None ->
      Error
        (Printf.sprintf "unknown circuit %S (known: %s)" name
           (String.concat ", " (List.map fst builtin_circuits)))

(* Moments sources carry their own (mu, sigma), hence no process. *)
let groups t =
  List.concat_map
    (fun source ->
      match source with
      | Moments _ -> [ (source, nominal) ]
      | Circuit _ -> List.map (fun p -> (source, p)) t.processes)
    t.sources

let n_scenarios t =
  List.length (groups t) * List.length t.methods * Array.length t.targets

let validate t =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* () = if t.sources = [] then fail "grid has no sources" else Ok () in
  let* () =
    if Array.length t.targets = 0 then fail "grid has no targets" else Ok ()
  in
  let* () = if t.methods = [] then fail "grid has no methods" else Ok () in
  let* () = if t.n <= 0 then fail "samples must be positive" else Ok () in
  let* () = if t.shards <= 0 then fail "shards must be positive" else Ok () in
  let* () =
    if Array.for_all Float.is_finite t.targets then Ok ()
    else fail "non-finite target"
  in
  let* () =
    match t.processes with
    | { inter_vth_mv = None; _ } :: _ -> Ok ()
    | _ -> fail "process list must start with the nominal process"
  in
  List.fold_left
    (fun acc s ->
      let* () = acc in
      match s with
      | Circuit _ -> Ok ()
      | Moments { label; stages; rho } ->
          if Array.length stages = 0 then fail "source %s: no stages" label
          else if
            not
              (Array.for_all
                 (fun (mu, sigma) ->
                   Float.is_finite mu && Float.is_finite sigma && sigma >= 0.0)
                 stages)
          then fail "source %s: stage moments must be finite, sigma >= 0" label
          else if not (Float.is_finite rho && rho >= -1.0 && rho <= 1.0) then
            fail "source %s: rho outside [-1, 1]" label
          else Ok ())
    (Ok ()) t.sources

let smoke () =
  {
    sources =
      [
        Moments
          { label = "moments1"; stages = Array.make 4 (100.0, 6.0); rho = 0.0 };
        Moments
          {
            label = "moments2";
            stages = [| (100.0, 6.0); (98.0, 5.0); (102.0, 7.0); (97.0, 4.0) |];
            rho = 0.3;
          };
        Circuit
          {
            label = "chain10";
            net = Spv_circuit.Generators.inverter_chain ~depth:10 ();
          };
      ];
    processes = [ nominal; { p_label = "vth60mv"; inter_vth_mv = Some 60.0 } ];
    targets = Array.init 10 (fun i -> 100.0 +. (5.0 *. float_of_int i));
    methods = [ Engine.Analytic_clark; Engine.Exact_independent; Engine.Mc ];
    n = 4096;
    shards = Engine.default_shards;
  }

(* ---- parsing -------------------------------------------------------- *)

type parse_error = { line : int option; message : string }

exception Parse_failure of parse_error

let parse_error_to_string e =
  match e.line with
  | Some n -> Printf.sprintf "line %d: %s" n e.message
  | None -> e.message

let fail_line lineno fmt =
  Printf.ksprintf
    (fun msg -> raise (Parse_failure { line = Some lineno; message = msg }))
    fmt

let tokens line =
  String.map (fun c -> if c = '\t' then ' ' else c) line
  |> String.split_on_char ' '
  |> List.filter (fun t -> t <> "")

let parse_float lineno what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> v
  | Some _ | None -> fail_line lineno "bad %s %S" what s

let parse_int lineno what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail_line lineno "bad %s %S" what s

let parse_pair lineno s =
  match String.split_on_char ',' s with
  | [ mu; sigma ] ->
      (parse_float lineno "stage mu" mu, parse_float lineno "stage sigma" sigma)
  | _ -> fail_line lineno "expected mu,sigma but got %S" s

let parse_targets lineno s =
  match String.split_on_char ':' s with
  | [ lo; hi; count ] ->
      let lo = parse_float lineno "target lo" lo in
      let hi = parse_float lineno "target hi" hi in
      let count = parse_int lineno "target count" count in
      if count <= 0 then fail_line lineno "target count must be positive";
      if count = 1 then [ lo ]
      else begin
        let step = (hi -. lo) /. float_of_int (count - 1) in
        List.init count (fun i -> lo +. (float_of_int i *. step))
      end
  | [ _ ] ->
      String.split_on_char ',' s
      |> List.map (fun v -> parse_float lineno "target" v)
  | _ -> fail_line lineno "expected lo:hi:count or a comma list, got %S" s

type pstate = {
  mutable p_sources : source list;  (* reversed *)
  mutable p_extra : process list;  (* reversed, non-nominal *)
  mutable p_targets : float list;  (* in order *)
  mutable p_methods : Engine.method_ list;  (* reversed *)
  mutable p_n : int;
  mutable p_shards : int;
  mutable p_rho : float;
  mutable p_moments : int;
}

let parse_directive ~lookup st lineno line =
  match tokens line with
  | [] -> ()
  | "circuit" :: rest -> (
      match rest with
      | [ name ] -> (
          match lookup name with
          | Ok net -> st.p_sources <- Circuit { label = name; net } :: st.p_sources
          | Error msg -> fail_line lineno "%s" msg)
      | _ -> fail_line lineno "circuit takes exactly one name")
  | "rho" :: rest -> (
      match rest with
      | [ v ] ->
          let rho = parse_float lineno "rho" v in
          if rho < -1.0 || rho > 1.0 then
            fail_line lineno "rho outside [-1, 1]";
          st.p_rho <- rho
      | _ -> fail_line lineno "rho takes exactly one value")
  | "stages" :: rest ->
      if rest = [] then fail_line lineno "stages needs at least one mu,sigma";
      st.p_moments <- st.p_moments + 1;
      let stages = Array.of_list (List.map (parse_pair lineno) rest) in
      st.p_sources <-
        Moments
          {
            label = Printf.sprintf "moments%d" st.p_moments;
            stages;
            rho = st.p_rho;
          }
        :: st.p_sources
  | "targets" :: rest -> (
      match rest with
      | [ spec ] -> st.p_targets <- st.p_targets @ parse_targets lineno spec
      | _ -> fail_line lineno "targets takes exactly one spec")
  | "method" :: rest -> (
      match rest with
      | [ names ] ->
          List.iter
            (fun name ->
              match Engine.method_of_string name with
              | Some m -> st.p_methods <- m :: st.p_methods
              | None ->
                  fail_line lineno "unknown method %S (known: %s)" name
                    (String.concat ", "
                       (List.map Engine.method_name Engine.all_methods)))
            (String.split_on_char ',' names)
      | _ -> fail_line lineno "method takes a comma-separated name list")
  | "inter_vth_mv" :: rest -> (
      match rest with
      | [ v ] ->
          let mv = parse_float lineno "inter_vth_mv" v in
          if mv < 0.0 then fail_line lineno "inter_vth_mv must be >= 0";
          let p_label = Printf.sprintf "vth%gmv" mv in
          if List.exists (fun p -> p.p_label = p_label) st.p_extra then
            fail_line lineno "duplicate process %s" p_label;
          st.p_extra <- { p_label; inter_vth_mv = Some mv } :: st.p_extra
      | _ -> fail_line lineno "inter_vth_mv takes exactly one value")
  | "samples" :: rest -> (
      match rest with
      | [ v ] ->
          let n = parse_int lineno "samples" v in
          if n <= 0 then fail_line lineno "samples must be positive";
          st.p_n <- n
      | _ -> fail_line lineno "samples takes exactly one value")
  | "shards" :: rest -> (
      match rest with
      | [ v ] ->
          let s = parse_int lineno "shards" v in
          if s <= 0 then fail_line lineno "shards must be positive";
          st.p_shards <- s
      | _ -> fail_line lineno "shards takes exactly one value")
  | keyword :: _ -> fail_line lineno "unknown directive %S" keyword

let of_string ?(lookup = builtin_lookup) text =
  let st =
    {
      p_sources = [];
      p_extra = [];
      p_targets = [];
      p_methods = [];
      p_n = 10_000;
      p_shards = Engine.default_shards;
      p_rho = 0.0;
      p_moments = 0;
    }
  in
  match
    String.split_on_char '\n' text
    |> List.iteri (fun i line ->
           let line =
             match String.index_opt line '#' with
             | None -> String.trim line
             | Some h -> String.trim (String.sub line 0 h)
           in
           parse_directive ~lookup st (i + 1) line)
  with
  | () ->
      let grid =
        {
          sources = List.rev st.p_sources;
          processes = nominal :: List.rev st.p_extra;
          targets = Array.of_list st.p_targets;
          methods =
            (match List.rev st.p_methods with
            | [] -> [ Engine.Analytic_clark ]
            | ms -> ms);
          n = st.p_n;
          shards = st.p_shards;
        }
      in
      (match validate grid with
      | Ok () -> Ok grid
      | Error message -> Error { line = None; message })
  | exception Parse_failure e -> Error e
