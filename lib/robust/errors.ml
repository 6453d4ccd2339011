type severity = Err | Warn

type diagnostic = {
  severity : severity;
  code : string;
  signal : string option;
  line : int option;
  message : string;
}

let diagnostic ?(severity = Err) ?signal ?line ~code message =
  { severity; code; signal; line; message }

let severity_to_string = function Err -> "error" | Warn -> "warning"

let diagnostic_to_string d =
  let where =
    match (d.line, d.signal) with
    | Some l, Some s -> Printf.sprintf " at line %d (%s)" l s
    | Some l, None -> Printf.sprintf " at line %d" l
    | None, Some s -> Printf.sprintf " (%s)" s
    | None, None -> ""
  in
  Printf.sprintf "%s [%s]%s: %s"
    (severity_to_string d.severity)
    d.code where d.message

type t =
  | Io_error of { path : string; message : string }
  | Parse_error of { path : string option; line : int option; message : string }
  | Lint_error of { path : string option; diagnostics : diagnostic list }
  | Numeric_error of { where : string; message : string }
  | Domain_error of { param : string; message : string }
  | Internal_error of { where : string; message : string }
  | Certificate_refuted of { what : string; detail : string }
  | Oracle_violation of { invariant : string; detail : string }
  | Deadline_exceeded of { where : string; budget_ms : int }

let to_string = function
  | Io_error { path; message } -> Printf.sprintf "I/O error: %s: %s" path message
  | Parse_error { path; line; message } ->
      let path = match path with Some p -> p ^ ": " | None -> "" in
      let line =
        match line with Some l -> Printf.sprintf "line %d: " l | None -> ""
      in
      Printf.sprintf "parse error: %s%s%s" path line message
  | Lint_error { path; diagnostics } ->
      let path = match path with Some p -> p ^ ": " | None -> "" in
      let errs =
        List.filter (fun d -> d.severity = Err) diagnostics
      in
      let shown = match errs with [] -> diagnostics | _ -> errs in
      Printf.sprintf "lint error: %s%s" path
        (String.concat "; " (List.map diagnostic_to_string shown))
  | Numeric_error { where; message } ->
      Printf.sprintf "numeric error in %s: %s" where message
  | Domain_error { param; message } ->
      Printf.sprintf "invalid %s: %s" param message
  | Internal_error { where; message } ->
      Printf.sprintf "internal error in %s: %s" where message
  | Certificate_refuted { what; detail } ->
      Printf.sprintf "certificate refuted: %s: %s" what detail
  | Oracle_violation { invariant; detail } ->
      Printf.sprintf "oracle violation [%s]: %s" invariant detail
  | Deadline_exceeded { where; budget_ms } ->
      Printf.sprintf "deadline exceeded in %s: budget %d ms spent" where
        budget_ms

(* Stable CLI contract — documented in README "Error handling & exit
   codes"; the fault-injection suite pins these values. *)
let exit_code = function
  | Io_error _ -> 2
  | Parse_error _ -> 3
  | Lint_error _ -> 4
  | Numeric_error _ -> 5
  | Domain_error _ -> 6
  | Internal_error _ -> 7
  | Certificate_refuted _ -> 8
  | Oracle_violation _ -> 9
  | Deadline_exceeded _ -> 10

let pp fmt e = Format.pp_print_string fmt (to_string e)

let io ~path message = Io_error { path; message }
let parse ?path ?line message = Parse_error { path; line; message }
let lint ?path diagnostics = Lint_error { path; diagnostics }
let numeric ~where message = Numeric_error { where; message }
let domain ~param message = Domain_error { param; message }
let internal ~where message = Internal_error { where; message }
let refuted ~what detail = Certificate_refuted { what; detail }
let violation ~invariant detail = Oracle_violation { invariant; detail }
let deadline ~where ~budget_ms = Deadline_exceeded { where; budget_ms }

let of_parse_error ?path (e : Spv_circuit.Bench_format.parse_error) =
  Parse_error { path; line = e.line; message = e.message }
