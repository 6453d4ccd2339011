(* Benchmark harness entry point.

     main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
              [--out DIR] [--bench FILE]
     main.exe compare [--bench FILE] BASE.json NEW.json [BASE.json NEW.json ...]

   A run prints every metric by name and unit, writes a results file
   under --out, and ends its standard output with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 1 the
   named workload is traced for --seconds and every other workload for
   a quarter of that, each in its own child process, so the line always
   carries the full per-layer table; the spans go to
   <out>/<workload>-seed<n>-trace.jsonl. *)

open Bench_suite

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-suite: " ^ s); exit 2) fmt

(* ---- BENCHMARK.json -------------------------------------------------- *)

type declared = { d_name : string; d_unit : string; lower : bool; bound : float }

let load_declared path =
  let j = match Json.read_file path with Ok j -> j | Error e -> die "%s: %s" path e in
  let list key =
    List.map
      (fun m ->
        let str k = Option.bind (Json.member k m) Json.to_str in
        match (str "name", str "unit") with
        | Some d_name, Some d_unit ->
            {
              d_name;
              d_unit;
              lower = str "better" = Some "lower";
              bound =
                Option.value (Option.bind (Json.member "bound" m) Json.to_num) ~default:0.0;
            }
        | _ -> die "%s: metric without name/unit under %s" path key)
      (Json.to_list (Option.value (Json.member key j) ~default:Json.Null))
  in
  (list "end_to_end", list "per_layer")

(* ---- environment stamp ----------------------------------------------- *)

let command_output prog args =
  match
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close w; Unix.close null)
        (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w null)
    in
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    (snd (Unix.waitpid [] pid), out)
  with
  | Unix.WEXITED 0, out -> Some (String.trim out)
  | _ -> None
  | exception Unix.Unix_error _ -> None

let env_stamp () =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("dune_profile", Json.Str Build_info.profile);
      ( "git_rev",
        (* only this directory's own repository, never an enclosing one *)
        Json.Str
          (Option.value ~default:"unknown"
             (if Sys.file_exists ".git" then command_output "git" [ "rev-parse"; "HEAD" ]
              else None)) );
      ("os", Json.Str Sys.os_type);
    ]

(* ---- results ----------------------------------------------------------- *)

let metric_json (m : Workloads.metric) =
  (m.Workloads.name, Json.Obj [ ("value", Json.Num m.Workloads.value); ("unit", Json.Str m.Workloads.unit_) ])

let run_json (r : Runner.run) =
  ( r.Runner.workload,
    Json.Obj
      [
        ("jobs", Json.Num (float_of_int r.Runner.jobs));
        ("unit_of_work", Json.Str r.Runner.unit_);
        ("attempted", Json.Num (float_of_int r.Runner.attempted));
        ("failed", Json.Num (float_of_int r.Runner.failed));
        ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.Runner.errors));
        ("metrics", Json.Obj (List.map metric_json r.Runner.metrics));
      ] )

let run_of_json name j =
  let num k = Option.value (Option.bind (Json.member k j) Json.to_num) ~default:0.0 in
  {
    Runner.workload = name;
    jobs = int_of_float (num "jobs");
    unit_ = Option.value (Option.bind (Json.member "unit_of_work" j) Json.to_str) ~default:"";
    attempted = int_of_float (num "attempted");
    failed = int_of_float (num "failed");
    errors =
      List.filter_map Json.to_str
        (Json.to_list (Option.value (Json.member "errors" j) ~default:Json.Null));
    metrics =
      List.filter_map
        (fun (name, m) ->
          match (Option.bind (Json.member "value" m) Json.to_num, Option.bind (Json.member "unit" m) Json.to_str) with
          | Some value, Some unit_ -> Some (Workloads.metric name unit_ value)
          | _ -> None)
        (Json.to_obj (Option.value (Json.member "metrics" j) ~default:Json.Null));
  }

let runs_of_file path =
  match Json.read_file path with
  | Error e -> die "%s: %s" path e
  | Ok j ->
      List.map
        (fun (name, w) -> run_of_json name w)
        (Json.to_obj (Option.value (Json.member "workloads" j) ~default:Json.Null))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path text =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let write_results path ~trace ~seed ~seconds runs =
  let all_ok = List.for_all Runner.correct runs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  write_file path
    (Json.to_string
       (Json.Obj
          [
            ("schema_version", Json.Num 1.0);
            ("trace", Json.Bool trace);
            ("seed", Json.Num (float_of_int seed));
            ("seconds", Json.Num seconds);
            ("env", env_stamp ());
            ("correct", Json.Bool all_ok);
            ("attempted", Json.Num (float_of_int (sum (fun r -> r.Runner.attempted))));
            ("failed", Json.Num (float_of_int (sum (fun r -> r.Runner.failed))));
            ("workloads", Json.Obj (List.map run_json runs));
          ])
    ^ "\n")

let print_run (r : Runner.run) =
  Printf.printf "%s (jobs %d, unit of work: %s): %d call(s), %d failed\n" r.Runner.workload
    r.Runner.jobs r.Runner.unit_ r.Runner.attempted r.Runner.failed;
  List.iter
    (fun (m : Workloads.metric) ->
      Printf.printf "  %-44s %14.6g %s\n" m.Workloads.name m.Workloads.value m.Workloads.unit_)
    r.Runner.metrics;
  List.iter (fun e -> Printf.printf "  error: %s\n" e) r.Runner.errors

(* The summary line: exactly the declared metrics, looked up by
   [key].  Exits without a summary when any is missing or carries the
   wrong unit — the harness self-check. *)
let summary ~declared ~key runs =
  let metrics =
    List.map
      (fun d ->
        let found =
          List.concat_map
            (fun r ->
              List.filter_map
                (fun (m : Workloads.metric) ->
                  if key r m = d.d_name then Some m else None)
                r.Runner.metrics)
            runs
        in
        match found with
        | [ m ] when m.Workloads.unit_ = d.d_unit && Float.is_finite m.Workloads.value ->
            (d.d_name, Json.Obj [ ("value", Json.Num m.Workloads.value); ("unit", Json.Str d.d_unit) ])
        | [ m ] ->
            die "self-check: %s reads %g %s, declared in %s" d.d_name m.Workloads.value
              m.Workloads.unit_ d.d_unit
        | [] -> die "self-check: declared metric %s is missing" d.d_name
        | _ -> die "self-check: metric %s reported more than once" d.d_name)
      declared
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all Runner.correct runs));
         ("attempted", Json.Num (float_of_int (sum (fun r -> r.Runner.attempted))));
         ("failed", Json.Num (float_of_int (sum (fun r -> r.Runner.failed))));
         ("metrics", Json.Obj metrics);
       ])

(* ---- child processes --------------------------------------------------- *)

let run_child args =
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr Unix.stderr in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> ()
  | _ -> die "child run %s failed" (String.concat " " args)

(* ---- commands ---------------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  single : bool;  (** internal: a traced child runs its workload only *)
  out : string;
  bench : string;
}

let result_path o ~name ~suffix = Filename.concat o.out (Printf.sprintf "%s-seed%d%s" name o.seed suffix)

let find_workload name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      die "unknown workload %S (known: %s)" name
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all))

let child_args o ~workload ~seconds ~trace =
  [
    "--workload"; workload; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%.17g" seconds;
    "--trace"; (if trace then "1" else "0"); "--out"; o.out; "--bench"; o.bench;
  ]
  @ if trace then [ "--single" ] else []

let run_cmd o =
  let e2e, layers = load_declared o.bench in
  let workloads =
    if o.workload = "all" then Workloads.all else [ find_workload o.workload ]
  in
  if o.trace && o.single then begin
    (* one traced child *)
    let w = List.hd workloads in
    let r, spans = Runner.traced w ~seed:o.seed ~seconds:o.seconds in
    write_file (result_path o ~name:w.Workloads.name ~suffix:"-trace.jsonl") spans;
    write_results (result_path o ~name:w.Workloads.name ~suffix:"-trace.json") ~trace:true ~seed:o.seed
      ~seconds:o.seconds [ r ]
  end
  else if o.trace then begin
    let full (w : Workloads.t) = o.workload = "all" || List.memq w workloads in
    let runs =
      List.concat_map
        (fun (w : Workloads.t) ->
          let seconds = if full w then o.seconds else o.seconds /. 4.0 in
          run_child (child_args o ~workload:w.Workloads.name ~seconds ~trace:true);
          runs_of_file (result_path o ~name:w.Workloads.name ~suffix:"-trace.json"))
        (workloads @ List.filter (fun w -> not (full w)) Workloads.all)
    in
    write_results (result_path o ~name:o.workload ~suffix:"-layers.json") ~trace:true ~seed:o.seed
      ~seconds:o.seconds runs;
    List.iter print_run runs;
    print_endline (summary ~declared:layers ~key:(fun _ m -> m.Workloads.name) runs)
  end
  else begin
    let runs =
      match workloads with
      | [ w ] -> [ Runner.end_to_end w ~seed:o.seed ~seconds:o.seconds ]
      | ws ->
          List.concat_map
            (fun (w : Workloads.t) ->
              run_child (child_args o ~workload:w.Workloads.name ~seconds:o.seconds ~trace:false);
              runs_of_file (result_path o ~name:w.Workloads.name ~suffix:".json"))
            ws
    in
    write_results (result_path o ~name:o.workload ~suffix:".json") ~trace:false ~seed:o.seed
      ~seconds:o.seconds runs;
    List.iter print_run runs;
    let key =
      if o.workload = "all" then fun (r : Runner.run) (m : Workloads.metric) ->
        r.Runner.workload ^ "." ^ m.Workloads.name
      else fun _ m -> m.Workloads.name
    in
    let declared =
      if o.workload = "all" then
        List.concat_map
          (fun (w : Workloads.t) -> List.map (fun d -> { d with d_name = w.Workloads.name ^ "." ^ d.d_name }) e2e)
          workloads
      else e2e
    in
    print_endline (summary ~declared ~key runs)
  end

let compare_cmd ~bench files =
  let e2e, _ = load_declared bench in
  let rec pairs = function
    | b :: n :: rest -> (runs_of_file b, runs_of_file n) :: pairs rest
    | [] -> []
    | [ f ] -> die "compare: %s has no partner (give BASE NEW pairs)" f
  in
  let ps = pairs files in
  if ps = [] then die "compare: give at least one BASE.json NEW.json pair";
  let value runs w name =
    match List.find_opt (fun r -> r.Runner.workload = w) runs with
    | None -> None
    | Some r ->
        Option.map
          (fun (m : Workloads.metric) -> m.Workloads.value)
          (List.find_opt (fun (m : Workloads.metric) -> m.Workloads.name = name) r.Runner.metrics)
  in
  let workloads =
    List.sort_uniq compare (List.concat_map (fun (b, _) -> List.map (fun r -> r.Runner.workload) b) ps)
  in
  Printf.printf "%-12s %-12s %12s %12s %8s %8s %7s %6s  %s\n" "workload" "metric" "base" "new" "delta%"
    "spread%" "bound%" "wins" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          let base, new_ =
            List.split
              (List.filter_map
                 (fun (b, n) ->
                   match (value b w d.d_name, value n w d.d_name) with
                   | Some x, Some y -> Some (x, y)
                   | _ -> None)
                 ps)
          in
          if base <> [] then begin
            let r =
              Compare.judge ~lower_is_better:d.lower ~bound:d.bound ~base:(Array.of_list base)
                ~new_:(Array.of_list new_)
            in
            Printf.printf "%-12s %-12s %12.6g %12.6g %8.2f %8.2f %7.1f %3d/%-2d  %s\n" w d.d_name
              r.Compare.base_median r.Compare.new_median
              (100.0 *. (r.Compare.new_median -. r.Compare.base_median) /. Float.abs r.Compare.base_median)
              (100.0 *. r.Compare.spread) (100.0 *. d.bound) r.Compare.wins r.Compare.pairs
              (Compare.verdict_name r.Compare.verdict)
          end)
        e2e)
    workloads

let usage () =
  die
    "usage: main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] \
     [--bench FILE]\n       main.exe compare [--bench FILE] BASE.json NEW.json [...]"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let default =
    {
      workload = "all";
      seed = 1;
      seconds = 10.0;
      trace = false;
      single = false;
      out = Filename.concat "bench" (Filename.concat "suite" "out");
      bench = "BENCHMARK.json";
    }
  in
  let num parse flag v = match parse v with Some x -> x | None -> die "%s: bad value %S" flag v in
  let rec parse o = function
    | [] -> o
    | "--workload" :: v :: rest -> parse { o with workload = v } rest
    | "--seed" :: v :: rest -> parse { o with seed = num int_of_string_opt "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = num float_of_string_opt "--seconds" v in
        if not (s > 0.0) then die "--seconds must be positive";
        parse { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with trace = v = "1" } rest
    | "--single" :: rest -> parse { o with single = true } rest
    | "--out" :: v :: rest -> parse { o with out = v } rest
    | "--bench" :: v :: rest -> parse { o with bench = v } rest
    | a :: _ -> die "unexpected argument %S" a
  in
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: "--bench" :: bench :: files -> compare_cmd ~bench files
  | "compare" :: files -> compare_cmd ~bench:default.bench files
  | [ ("-h" | "--help") ] -> usage ()
  | args -> run_cmd (parse default args)
