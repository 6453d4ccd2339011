module Engine = Spv_engine.Engine
module Par = Spv_engine.Par
module Macro = Spv_circuit.Macro

let request_schema_version = 1
let response_schema_version = 1

(* ---- structured errors ---------------------------------------------- *)

(* [Spv_robust.Errors] owns the exit-code taxonomy, but it links
   against this library, so the daemon carries its own mirror of the
   few codes it can emit.  The robust-layer tests pin these values
   against [Errors.exit_code]. *)
type error = { status : string; code : int; message : string }

let parse_error message = { status = "parse_error"; code = 3; message }
let domain_error message = { status = "domain_error"; code = 6; message }
let internal_error message = { status = "internal_error"; code = 7; message }

let deadline_error budget_ms =
  {
    status = "deadline_exceeded";
    code = 10;
    message =
      Printf.sprintf "deadline exceeded in serve: budget %d ms spent"
        budget_ms;
  }

(* ---- LRU context cache ---------------------------------------------- *)

module Cache = struct
  type entry = {
    ctx : Engine.Ctx.t;
    macro_hits : int;
    macro_misses : int;
  }

  (* An assoc list kept most-recent-first.  Capacities are tens of
     entries (each holds a Cholesky factorisation and, for circuits,
     the SSTA analyses), so linear probes are noise next to one
     context build, let alone one evaluation. *)
  type t = {
    cap : int;
    mutable entries : (string * entry) list;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Serve.Cache.create: capacity <= 0";
    { cap = capacity; entries = []; hits = 0; misses = 0; evictions = 0 }

  let capacity t = t.cap
  let length t = List.length t.entries
  let hits t = t.hits
  let misses t = t.misses
  let evictions t = t.evictions
  let keys t = List.map fst t.entries

  let find t key =
    match List.assoc_opt key t.entries with
    | None ->
        t.misses <- t.misses + 1;
        None
    | Some e ->
        t.hits <- t.hits + 1;
        t.entries <- (key, e) :: List.remove_assoc key t.entries;
        Some e

  let add t key entry =
    let entries = (key, entry) :: List.remove_assoc key t.entries in
    let n = List.length entries in
    if n > t.cap then begin
      t.entries <- List.filteri (fun i _ -> i < t.cap) entries;
      t.evictions <- t.evictions + (n - t.cap)
    end
    else t.entries <- entries
end

let scenario_key ~(mode : Engine.mode) (source : Grid.source)
    (process : Grid.process) =
  let b = Buffer.create 128 in
  (match source with
  | Grid.Circuit { net; _ } ->
      Buffer.add_string b (Printf.sprintf "circuit:%016Lx" (Macro.hash net))
  | Grid.Moments { stages; rho; _ } ->
      Buffer.add_string b "moments:";
      Array.iter
        (fun (mu, sigma) ->
          Buffer.add_string b (Printf.sprintf "%.17g,%.17g;" mu sigma))
        stages;
      Buffer.add_string b (Printf.sprintf "rho=%.17g" rho));
  Buffer.add_char b '|';
  (match process.Grid.inter_vth_mv with
  | None -> Buffer.add_string b "nominal"
  | Some mv -> Buffer.add_string b (Printf.sprintf "vth=%.17g" mv));
  Buffer.add_char b '|';
  Buffer.add_string b (Engine.mode_name mode);
  Buffer.contents b

(* ---- daemon state --------------------------------------------------- *)

type t = {
  clock : unit -> float;
  cache : Cache.t;
  tech : Spv_process.Tech.t;
  lookup : string -> (Spv_circuit.Netlist.t, string) result;
}

let create ?(clock = Unix.gettimeofday) ?(capacity = 32)
    ?(tech = Spv_process.Tech.bptm70) ?(lookup = Grid.builtin_lookup) () =
  { clock; cache = Cache.create ~capacity; tech; lookup }

let cache t = t.cache

(* ---- minimal JSON (flat objects only) ------------------------------- *)

(* Requests are single-line flat objects of strings, numbers, booleans
   and null — nested containers and duplicate keys are rejected.
   Hand-rolled because the build carries no JSON library, and the
   daemon must not gain one. *)

type jvalue = Jstring of string | Jnumber of float | Jbool of bool | Jnull

exception Bad_json of string

let parse_object (s : string) : (string * jvalue) list =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json msg) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | Some c' ->
        fail (Printf.sprintf "expected %C at offset %d, found %C" c !pos c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 32 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           incr pos;
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               pos := !pos + 4;
               let code =
                 match int_of_string_opt ("0x" ^ hex) with
                 | Some c when c >= 0 -> c
                 | _ -> fail (Printf.sprintf "bad \\u escape %S" hex)
               in
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char buf
                   (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
           | e -> fail (Printf.sprintf "bad escape \\%c" e));
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstring (parse_string ())
    | Some 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
          pos := !pos + 4;
          Jbool true
        end
        else fail "bad literal"
    | Some 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
          pos := !pos + 5;
          Jbool false
        end
        else fail "bad literal"
    | Some 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
          pos := !pos + 4;
          Jnull
        end
        else fail "bad literal"
    | Some c when c = '-' || (c >= '0' && c <= '9') ->
        let start = !pos in
        if c = '-' then incr pos;
        let digits () =
          while
            !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
          do
            incr pos
          done
        in
        digits ();
        if !pos < n && s.[!pos] = '.' then begin
          incr pos;
          digits ()
        end;
        if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
          incr pos;
          if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then incr pos;
          digits ()
        end;
        let tok = String.sub s start (!pos - start) in
        (match float_of_string_opt tok with
        | Some x -> Jnumber x
        | None -> fail (Printf.sprintf "bad number %S" tok))
    | Some c -> fail (Printf.sprintf "unexpected %C at offset %d" c !pos)
    | None -> fail "unexpected end of input"
  in
  expect '{';
  skip_ws ();
  let fields = ref [] in
  (match peek () with
  | Some '}' -> incr pos
  | _ ->
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        if List.mem_assoc key !fields then
          fail (Printf.sprintf "duplicate key %S" key);
        expect ':';
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | Some c -> fail (Printf.sprintf "expected ',' or '}', found %C" c)
        | None -> fail "unterminated object"
      in
      members ());
  skip_ws ();
  if !pos <> n then fail (Printf.sprintf "trailing input at offset %d" !pos);
  List.rev !fields

(* ---- request parsing ------------------------------------------------ *)

type request = {
  request_id : string;
  grid : Grid.t;
  seed : int;
  jobs : int option;
  workers : int;
  deadline_ms : int option;
  mode : Engine.mode;
}

let known_keys =
  [ "schema_version"; "request_id"; "grid"; "seed"; "jobs"; "workers";
    "deadline_ms"; "mode" ]

let ( let* ) = Result.bind

(* Returns the request id alongside any error so the error response
   can still be attributed whenever the line was parseable enough to
   carry one. *)
let parse_request t line : (request, string option * error) result =
  match parse_object line with
  | exception Bad_json msg -> Error (None, parse_error ("request: " ^ msg))
  | fields ->
      let find k = List.assoc_opt k fields in
      let rid =
        match find "request_id" with Some (Jstring s) -> Some s | _ -> None
      in
      let err e = Error (rid, e) in
      (* int_of_float wraps past the int range, hence the 2^62 bound *)
      let int_field key ~min =
        match find key with
        | None -> Ok None
        | Some (Jnumber x)
          when Float.is_integer x && x >= float_of_int min && x < 0x1p62 ->
            Ok (Some (int_of_float x))
        | Some _ ->
            err
              (domain_error
                 (Printf.sprintf "invalid %s: expected an integer >= %d" key
                    min))
      in
      let* () =
        match find "schema_version" with
        | Some (Jnumber v) when v = float_of_int request_schema_version ->
            Ok ()
        | Some _ ->
            err
              (domain_error
                 (Printf.sprintf
                    "invalid schema_version: this daemon speaks version %d"
                    request_schema_version))
        | None -> err (domain_error "invalid request: missing schema_version")
      in
      let* () =
        match
          List.find_opt (fun (k, _) -> not (List.mem k known_keys)) fields
        with
        | None -> Ok ()
        | Some (k, _) ->
            err
              (domain_error
                 (Printf.sprintf "invalid request: unknown key %S (known: %s)" k
                    (String.concat ", " known_keys)))
      in
      let* request_id =
        match rid with
        | Some id -> Ok id
        | None ->
            err (domain_error "invalid request: missing string request_id")
      in
      let* grid_text =
        match find "grid" with
        | Some (Jstring g) -> Ok g
        | _ -> err (domain_error "invalid request: missing string grid")
      in
      let* grid =
        match Grid.of_string ~lookup:t.lookup grid_text with
        | Ok g -> Ok g
        | Error pe ->
            err (parse_error ("grid: " ^ Grid.parse_error_to_string pe))
      in
      let* seed = int_field "seed" ~min:0 in
      let seed = Option.value seed ~default:Engine.default_seed in
      let* jobs = int_field "jobs" ~min:1 in
      let* workers = int_field "workers" ~min:1 in
      let workers = Option.value workers ~default:1 in
      let* deadline_ms = int_field "deadline_ms" ~min:1 in
      let* mode =
        match find "mode" with
        | None -> Ok Engine.Flat
        | Some (Jstring "flat") -> Ok Engine.Flat
        | Some (Jstring ("hierarchical" | "hier")) -> Ok Engine.Hierarchical
        | Some _ ->
            err (domain_error "invalid mode: known: flat, hierarchical")
      in
      Ok { request_id; grid; seed; jobs; workers; deadline_ms; mode }

(* ---- request encoder ------------------------------------------------ *)

let request_line ?seed ?jobs ?workers ?deadline_ms ?mode ~request_id ~grid () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema_version\":%d,\"request_id\":\"%s\""
       request_schema_version (Sweep.json_escape request_id));
  let opt_int key = function
    | None -> ()
    | Some v -> Buffer.add_string b (Printf.sprintf ",\"%s\":%d" key v)
  in
  let opt_str key = function
    | None -> ()
    | Some v ->
        Buffer.add_string b
          (Printf.sprintf ",\"%s\":\"%s\"" key (Sweep.json_escape v))
  in
  opt_int "seed" seed;
  opt_int "jobs" jobs;
  opt_int "workers" workers;
  opt_int "deadline_ms" deadline_ms;
  opt_str "mode" mode;
  Buffer.add_string b
    (Printf.sprintf ",\"grid\":\"%s\"}" (Sweep.json_escape grid));
  Buffer.contents b

(* ---- evaluation ----------------------------------------------------- *)

(* One request: a serial cache pass over [Grid.groups] (probe, build
   misses, insert — hit/miss/eviction counters never depend on
   [workers]), then scenario-level fan-out of [Sweep.group_rows] over
   the groups via [Par.run].  Each group's rows are numbered by
   [Sweep] itself, so the concatenation is the one-shot sweep's row
   list.  A miss builds on a fresh macro table and the cache replays
   those counters on every hit, keeping rows independent of cache
   state.  Raises [Sweep.Stopped] past the deadline — the caller maps
   it to one error line, so no partial output ever escapes. *)
let eval_request t (r : request) =
  let start = t.clock () in
  let should_stop =
    match r.deadline_ms with
    | None -> fun () -> false
    | Some ms ->
        fun () -> (t.clock () -. start) *. 1000.0 > float_of_int ms
  in
  let grid = r.grid in
  let per_group =
    List.length grid.Grid.methods * Array.length grid.Grid.targets
  in
  let groups = Array.of_list (Grid.groups grid) in
  let tasks =
    Array.mapi
      (fun g ((source, process) as group) ->
        if should_stop () then raise Sweep.Stopped;
        let key = scenario_key ~mode:r.mode source process in
        let ctx, counters =
          match Cache.find t.cache key with
          | Some e -> (e.Cache.ctx, (e.Cache.macro_hits, e.Cache.macro_misses))
          | None ->
              let ((ctx, (macro_hits, macro_misses)) as built) =
                Sweep.build ~mode:r.mode ~tech:t.tech source process
              in
              Cache.add t.cache key { Cache.ctx; macro_hits; macro_misses };
              built
        in
        fun () ->
          Sweep.group_rows ~should_stop ?jobs:r.jobs ~seed:r.seed grid
            ~first:(g * per_group) ctx group counters)
      groups
  in
  (List.concat (Array.to_list (Par.run ~jobs:r.workers tasks)),
   Array.length groups)

(* ---- responses ------------------------------------------------------ *)

let row_json ~request_id row =
  Printf.sprintf
    "{\"schema_version\":%d,\"kind\":\"row\",\"request_id\":\"%s\",\"row\":%s}"
    response_schema_version
    (Sweep.json_escape request_id)
    (Sweep.row_to_json row)

let done_json t ~request_id ~rows ~n_contexts =
  Printf.sprintf
    "{\"schema_version\":%d,\"kind\":\"done\",\"request_id\":\"%s\",\"status\":\"ok\",\"code\":0,\"rows\":%d,\"n_contexts\":%d,\"cache_size\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"cache_evictions\":%d}"
    response_schema_version (Sweep.json_escape request_id) rows n_contexts
    (Cache.length t.cache) (Cache.hits t.cache) (Cache.misses t.cache)
    (Cache.evictions t.cache)

let error_json ?request_id e =
  let rid =
    match request_id with
    | None -> "null"
    | Some r -> Printf.sprintf "\"%s\"" (Sweep.json_escape r)
  in
  Printf.sprintf
    "{\"schema_version\":%d,\"kind\":\"error\",\"request_id\":%s,\"status\":\"%s\",\"code\":%d,\"message\":\"%s\"}"
    response_schema_version rid e.status e.code (Sweep.json_escape e.message)

let is_blank line = String.trim line = ""

let handle_line t line =
  if is_blank line then []
  else
    match parse_request t line with
    | Error (rid, e) -> [ error_json ?request_id:rid e ]
    | Ok r -> (
        match eval_request t r with
        | rows, n_contexts ->
            List.map (row_json ~request_id:r.request_id) rows
            @ [
                done_json t ~request_id:r.request_id
                  ~rows:(List.length rows) ~n_contexts;
              ]
        | exception Sweep.Stopped ->
            let budget_ms = Option.value r.deadline_ms ~default:0 in
            [
              error_json ~request_id:r.request_id (deadline_error budget_ms);
            ]
        | exception exn ->
            [
              error_json ~request_id:r.request_id
                (internal_error (Printexc.to_string exn));
            ])

(* ---- transports ----------------------------------------------------- *)

let serve_channels t ic oc =
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        List.iter
          (fun resp ->
            Out_channel.output_string oc resp;
            Out_channel.output_char oc '\n')
          (handle_line t line);
        Out_channel.flush oc;
        loop ()
  in
  loop ()

let serve_socket ?max_conns t ~path =
  (* Socket setup failures (unwritable directory, stale non-socket
     file, path too long) are I/O errors on [path], not bugs: surface
     them as [Sys_error] so [Checked.protect] maps them to the
     [Io_error] exit code instead of leaking [Unix.Unix_error]. *)
  let io_error e fn =
    raise (Sys_error (Printf.sprintf "%s: %s (%s)" path (Unix.error_message e) fn))
  in
  (match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (e, fn, _) -> io_error e fn);
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      (match Unix.bind sock (Unix.ADDR_UNIX path) with
      | () -> ()
      | exception Unix.Unix_error (e, fn, _) -> io_error e fn);
      Unix.listen sock 8;
      let served = ref 0 in
      let continue () =
        match max_conns with None -> true | Some m -> !served < m
      in
      while continue () do
        let fd, _ = Unix.accept sock in
        incr served;
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> serve_channels t ic oc)
      done)
