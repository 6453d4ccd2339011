(* The serve daemon's contracts under test:

   1. Golden transcript: from a fresh daemon, a fixed request
      transcript produces byte-identical response bytes, and the row
      payloads are independent of the per-request jobs/workers knobs
      (trial-level AND scenario-level parallelism never change bytes).

   2. Honesty: every embedded flat row is byte-identical to the
      one-shot [Sweep.run] JSONL for the same grid and seed; a
      hierarchical row is identical except macro_hits / macro_misses,
      which are those of a fresh-table build of its context.

   3. Robustness: malformed requests (truncated JSON, unknown
      schema_version, bad method names) each yield one structured
      error row with the documented status/code pair — and the daemon
      keeps serving afterwards.

   4. The LRU context cache: deterministic hit/miss/eviction counters,
      MRU-first ordering, and cached contexts that fingerprint equal
      to freshly built ones.

   5. Deadlines (under an injected clock): an exceeded budget produces
      a single deadline_exceeded row — never partial output. *)

module Grid = Spv_workload.Grid
module Sweep = Spv_workload.Sweep
module Serve = Spv_workload.Serve
module Engine = Spv_engine.Engine
module Errors = Spv_robust.Errors

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let grid_text =
  "stages 100,6 100,6 95,5\n\
   rho 0.3\n\
   circuit chain10\n\
   inter_vth_mv 60\n\
   targets 300:400:3\n\
   method clark,mc,importance\n\
   samples 1500\n\
   shards 4\n"

(* 3 contexts (moments nominal + chain10 x {nominal, vth60mv}),
   3 methods x 3 targets each. *)
let n_groups = 3
let n_rows = n_groups * 3 * 3

let embedded_row line =
  let marker = "\"row\":" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length line then None
    else if String.sub line i ml = marker then
      Some (String.sub line (i + ml) (String.length line - i - ml - 1))
    else find (i + 1)
  in
  find 0

let rows_of ~request_id lines =
  List.filter_map
    (fun l ->
      if
        contains l "\"kind\":\"row\""
        && contains l (Printf.sprintf "\"request_id\":\"%s\"" request_id)
      then embedded_row l
      else None)
    lines

(* ---- golden transcript ----------------------------------------------- *)

let transcript_requests =
  [
    Serve.request_line ~request_id:"q1" ~seed:7 ~jobs:1 ~workers:1
      ~grid:grid_text ();
    Serve.request_line ~request_id:"q2" ~seed:7 ~jobs:4 ~workers:2
      ~grid:grid_text ();
    "{\"schema_version\":1,\"request_id\":\"q3\",\"grid\":";
    Serve.request_line ~request_id:"q4" ~seed:9 ~grid:grid_text ();
  ]

let run_transcript () =
  let d = Serve.create () in
  List.concat_map (Serve.handle_line d) transcript_requests

let test_transcript_byte_identical () =
  let t1 = run_transcript () and t2 = run_transcript () in
  Alcotest.(check (list string))
    "two fresh daemons, same transcript, same bytes" t1 t2;
  let rows1 = rows_of ~request_id:"q1" t1
  and rows2 = rows_of ~request_id:"q2" t1 in
  Alcotest.(check int) "q1 row count" n_rows (List.length rows1);
  Alcotest.(check (list string))
    "rows independent of jobs (1 vs 4) and workers (1 vs 2)" rows1 rows2

let test_rows_match_one_shot_sweep () =
  let t = run_transcript () in
  let grid =
    match Grid.of_string grid_text with
    | Ok g -> g
    | Error e -> Alcotest.failf "grid: %s" (Grid.parse_error_to_string e)
  in
  let one_shot = Sweep.run ~jobs:1 ~seed:7 grid in
  let expected =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Sweep.to_jsonl one_shot))
  in
  Alcotest.(check (list string))
    "served rows = one-shot sweep JSONL, byte for byte" expected
    (rows_of ~request_id:"q1" t)

(* Hierarchical rows: the one-shot sweep shares one macro table across
   the whole grid, while the daemon builds each missed context on a
   fresh table and replays those counters on every hit.  So served
   rows equal the one-shot rows in every field but macro_hits /
   macro_misses, which are a fresh-table build's, whatever the cache
   history.  On this grid vth40mv re-uses nominal's characterisation in
   the shared table, so the two really do differ there. *)
let hier_grid_text =
  "stages 100,6 100,6 95,5\n\
   circuit chain10\n\
   circuit c432\n\
   inter_vth_mv 60\n\
   inter_vth_mv 40\n\
   targets 300:400:2\n\
   method clark,mc\n\
   samples 1000\n\
   shards 4\n"

(* More groups than the runtime allows domains, at a [workers] far
   beyond that: the rows are the serial ones. *)
let test_oversized_workers () =
  let grid =
    String.concat ""
      (List.init 150 (fun i ->
           Printf.sprintf "stages %d,5 95,4\n" (90 + (i mod 20))))
    ^ "targets 110\nmethod clark,mc\nsamples 64\nshards 2\n"
  in
  let d = Serve.create () in
  let serve rid workers =
    rows_of ~request_id:rid
      (Serve.handle_line d
         (Serve.request_line ~request_id:rid ~seed:7 ~jobs:2 ~workers ~grid ()))
  in
  let serial = serve "w1" 1 in
  Alcotest.(check int) "row count" 300 (List.length serial);
  Alcotest.(check (list string))
    "workers 100000 = workers 1" serial (serve "wmax" 100_000)

let test_hier_rows_contract () =
  let grid =
    match Grid.of_string hier_grid_text with
    | Ok g -> g
    | Error e -> Alcotest.failf "grid: %s" (Grid.parse_error_to_string e)
  in
  let one_shot = Sweep.run ~mode:Engine.Hierarchical ~jobs:1 ~seed:7 grid in
  let fresh =
    Array.of_list
      (List.map
         (fun (source, process) ->
           snd
             (Sweep.build ~mode:Engine.Hierarchical
                ~tech:Spv_process.Tech.bptm70 source process))
         (Grid.groups grid))
  in
  let per_group = 2 * 2 in
  let expected =
    Array.to_list
      (Array.map
         (fun (r : Sweep.row) ->
           let macro_hits, macro_misses =
             fresh.(r.Sweep.scenario.Sweep.index / per_group)
           in
           Sweep.row_to_json { r with Sweep.macro_hits; macro_misses })
         one_shot.Sweep.rows)
  in
  let d = Serve.create () in
  let serve rid =
    rows_of ~request_id:rid
      (Serve.handle_line d
         (Serve.request_line ~request_id:rid ~seed:7 ~workers:2
            ~mode:"hierarchical" ~grid:hier_grid_text ()))
  in
  let cold = serve "cold" in
  Alcotest.(check (list string))
    "served = one-shot but for fresh-table macro counters" expected cold;
  Alcotest.(check (list string)) "cache hits replay the same rows" cold
    (serve "warm");
  Alcotest.(check bool) "the shared-table counters differ somewhere" true
    (Array.exists
       (fun (r : Sweep.row) ->
         (r.Sweep.macro_hits, r.Sweep.macro_misses)
         <> fresh.(r.Sweep.scenario.Sweep.index / per_group))
       one_shot.Sweep.rows)

let test_done_row_reports_cache_counters () =
  let t = run_transcript () in
  let done_of rid =
    match
      List.find_opt
        (fun l ->
          contains l "\"kind\":\"done\""
          && contains l (Printf.sprintf "\"request_id\":\"%s\"" rid))
        t
    with
    | Some l -> l
    | None -> Alcotest.failf "no done row for %s" rid
  in
  let d1 = done_of "q1" and d2 = done_of "q2" and d4 = done_of "q4" in
  Alcotest.(check bool) "q1: all misses" true
    (contains d1 (Printf.sprintf "\"cache_misses\":%d" n_groups)
    && contains d1 "\"cache_hits\":0");
  Alcotest.(check bool) "q2: all hits" true
    (contains d2 (Printf.sprintf "\"cache_hits\":%d" n_groups));
  (* q4 reuses the same contexts at a different seed: still hits *)
  Alcotest.(check bool) "q4: seed does not key the cache" true
    (contains d4 (Printf.sprintf "\"cache_hits\":%d" (2 * n_groups)));
  Alcotest.(check bool) "done rows carry status ok / code 0" true
    (contains d1 "\"status\":\"ok\"" && contains d1 "\"code\":0")

(* ---- malformed requests ---------------------------------------------- *)

let test_malformed_requests_structured_errors () =
  let d = Serve.create () in
  let expect_error line ~rid ~status ~code =
    match Serve.handle_line d line with
    | [ e ] ->
        Alcotest.(check bool)
          (Printf.sprintf "error row kind (%s)" status)
          true
          (contains e "\"kind\":\"error\"");
        Alcotest.(check bool)
          (Printf.sprintf "request_id %s" rid)
          true (contains e (Printf.sprintf "\"request_id\":%s" rid));
        Alcotest.(check bool) status true
          (contains e (Printf.sprintf "\"status\":\"%s\"" status));
        Alcotest.(check bool)
          (Printf.sprintf "code %d" code)
          true
          (contains e (Printf.sprintf "\"code\":%d" code))
    | other ->
        Alcotest.failf "expected one error row, got %d line(s)"
          (List.length other)
  in
  (* truncated JSON: no recoverable request id *)
  expect_error "{\"schema_version\":1,\"request_id\":\"x\",\"grid\":"
    ~rid:"null" ~status:"parse_error" ~code:3;
  (* unknown schema version *)
  expect_error "{\"schema_version\":99,\"request_id\":\"v\",\"grid\":\"\"}"
    ~rid:"\"v\"" ~status:"domain_error" ~code:6;
  (* bad method name inside the grid *)
  expect_error
    (Serve.request_line ~request_id:"m"
       ~grid:"stages 100,6\ntargets 120\nmethod warlock\n" ())
    ~rid:"\"m\"" ~status:"parse_error" ~code:3;
  (* nested JSON is rejected, not mis-parsed *)
  expect_error "{\"schema_version\":1,\"request_id\":\"n\",\"grid\":{}}"
    ~rid:"null" ~status:"parse_error" ~code:3;
  (* bad parameter *)
  expect_error
    "{\"schema_version\":1,\"request_id\":\"j\",\"jobs\":0,\"grid\":\"stages \
     100,6\\ntargets 120\\n\"}"
    ~rid:"\"j\"" ~status:"domain_error" ~code:6;
  (* integral values beyond the int range must not wrap past ~min *)
  List.iter
    (fun field ->
      expect_error
        (Printf.sprintf
           "{\"schema_version\":1,\"request_id\":\"r\",%s,\"grid\":\"stages \
            100,5 95,4\\nmethod clark,mc\\ntargets 110\"}"
           field)
        ~rid:"\"r\"" ~status:"domain_error" ~code:6)
    [
      "\"jobs\":1e19";
      "\"workers\":1e19";
      "\"deadline_ms\":4.7e18";
      "\"seed\":4.7e18";
    ];
  (* retired and unknown keys are refused, never silently ignored *)
  List.iter
    (fun field ->
      let line =
        Printf.sprintf
          "{\"schema_version\":1,\"request_id\":\"u\",%s,\"grid\":\"stages \
           100,6\\ntargets 120\\nmethod importance\\n\"}"
          field
      in
      expect_error line ~rid:"\"u\"" ~status:"domain_error" ~code:6;
      match Serve.handle_line d line with
      | [ e ] ->
          Alcotest.(check bool) "message lists the known keys" true
            (contains e "known: schema_version, request_id, grid, seed")
      | _ -> Alcotest.fail "expected one error row")
    [ "\"proposal\":\"legacy\""; "\"colour\":\"blue\"" ];
  (* a duplicate key is ambiguous, so it is a parse error *)
  expect_error
    "{\"schema_version\":1,\"request_id\":\"d\",\"seed\":1,\"seed\":2,\"grid\":\"stages \
     100,6\\ntargets 120\\n\"}"
    ~rid:"null" ~status:"parse_error" ~code:3;
  (* the daemon survives all of the above *)
  let ok =
    Serve.handle_line d
      (Serve.request_line ~request_id:"alive"
         ~grid:"stages 100,6\ntargets 120\nmethod clark\n" ())
  in
  Alcotest.(check int) "daemon still serves: row + done" 2 (List.length ok);
  Alcotest.(check bool) "status ok" true
    (contains (List.nth ok 1) "\"status\":\"ok\"")

let test_error_codes_match_robust_taxonomy () =
  (* Serve duplicates the exit codes (it sits below Spv_robust); pin
     the mirror against the authoritative table. *)
  Alcotest.(check int) "parse" 3
    (Errors.exit_code (Errors.parse "x"));
  Alcotest.(check int) "domain" 6
    (Errors.exit_code (Errors.domain ~param:"p" "x"));
  Alcotest.(check int) "internal" 7
    (Errors.exit_code (Errors.internal ~where:"w" "x"));
  Alcotest.(check int) "deadline" 10
    (Errors.exit_code (Errors.deadline ~where:"serve" ~budget_ms:1));
  Alcotest.(check bool) "deadline message names the budget" true
    (contains
       (Errors.to_string (Errors.deadline ~where:"serve" ~budget_ms:250))
       "250 ms")

(* ---- LRU cache ------------------------------------------------------- *)

let test_cache_lru_order_and_eviction () =
  let c = Serve.Cache.create ~capacity:2 in
  let entry () =
    {
      Serve.Cache.ctx =
        Engine.Ctx.of_pipeline
          (Spv_core.Pipeline.make
             [| Spv_core.Stage.of_moments ~mu:100.0 ~sigma:5.0 () |]
             ~corr:(Spv_stats.Correlation.uniform ~n:1 ~rho:0.0));
      macro_hits = 0;
      macro_misses = 0;
    }
  in
  Alcotest.(check bool) "empty miss" true (Serve.Cache.find c "a" = None);
  Serve.Cache.add c "a" (entry ());
  Serve.Cache.add c "b" (entry ());
  Alcotest.(check (list string)) "MRU first" [ "b"; "a" ] (Serve.Cache.keys c);
  (* touching a moves it to the front *)
  Alcotest.(check bool) "hit a" true (Serve.Cache.find c "a" <> None);
  Alcotest.(check (list string)) "a promoted" [ "a"; "b" ]
    (Serve.Cache.keys c);
  (* inserting over capacity evicts the LRU tail (now b) *)
  Serve.Cache.add c "c" (entry ());
  Alcotest.(check (list string)) "b evicted" [ "c"; "a" ]
    (Serve.Cache.keys c);
  Alcotest.(check int) "evictions" 1 (Serve.Cache.evictions c);
  Alcotest.(check int) "hits" 1 (Serve.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Serve.Cache.misses c);
  Alcotest.(check int) "length bounded" 2 (Serve.Cache.length c);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Serve.Cache.create: capacity <= 0") (fun () ->
      ignore (Serve.Cache.create ~capacity:0))

let test_capacity_one_daemon_thrashes_deterministically () =
  let d = Serve.create ~capacity:1 () in
  let t1 =
    List.concat_map (Serve.handle_line d)
      [ Serve.request_line ~request_id:"q1" ~seed:7 ~grid:grid_text () ]
  in
  (* 3 groups through a 1-entry cache: all misses, 2 evictions *)
  let done1 = List.nth t1 (List.length t1 - 1) in
  Alcotest.(check bool) "all misses" true
    (contains done1 (Printf.sprintf "\"cache_misses\":%d" n_groups));
  Alcotest.(check bool) "evictions = groups - capacity" true
    (contains done1 (Printf.sprintf "\"cache_evictions\":%d" (n_groups - 1)));
  (* rows are nonetheless byte-identical to a big-cache daemon's *)
  let d2 = Serve.create ~capacity:32 () in
  let t2 =
    List.concat_map (Serve.handle_line d2)
      [ Serve.request_line ~request_id:"q1" ~seed:7 ~grid:grid_text () ]
  in
  Alcotest.(check (list string))
    "rows independent of cache capacity"
    (rows_of ~request_id:"q1" t1)
    (rows_of ~request_id:"q1" t2)

let test_cached_ctx_fingerprints_match_fresh_builds () =
  let d = Serve.create () in
  ignore
    (Serve.handle_line d
       (Serve.request_line ~request_id:"q" ~seed:7 ~grid:grid_text ()));
  let grid =
    match Grid.of_string grid_text with Ok g -> g | Error _ -> assert false
  in
  List.iter
    (fun (source, process) ->
      let key = Serve.scenario_key ~mode:Engine.Flat source process in
      match Serve.Cache.find (Serve.cache d) key with
      | None -> Alcotest.failf "no cache entry for %s" key
      | Some e ->
          let fresh =
            Sweep.ctx_for ~tech:Spv_process.Tech.bptm70 source process
          in
          Alcotest.(check string)
            (Printf.sprintf "fingerprint of cached ctx (%s)" key)
            (Engine.Ctx.fingerprint fresh)
            (Engine.Ctx.fingerprint e.Serve.Cache.ctx))
    (Grid.groups grid)

let test_scenario_keys_separate_what_must_differ () =
  let m1 =
    Grid.Moments { label = "m"; stages = [| (100.0, 6.0) |]; rho = 0.2 }
  in
  let m2 =
    Grid.Moments { label = "m"; stages = [| (100.0, 6.0) |]; rho = 0.3 }
  in
  let c =
    Grid.Circuit
      { label = "c"; net = Spv_circuit.Generators.inverter_chain ~depth:4 () }
  in
  let vth = { Grid.p_label = "vth60mv"; inter_vth_mv = Some 60.0 } in
  let key = Serve.scenario_key in
  Alcotest.(check bool) "rho keys differently" true
    (key ~mode:Engine.Flat m1 Grid.nominal
    <> key ~mode:Engine.Flat m2 Grid.nominal);
  Alcotest.(check bool) "process keys differently" true
    (key ~mode:Engine.Flat c Grid.nominal <> key ~mode:Engine.Flat c vth);
  Alcotest.(check bool) "mode keys differently" true
    (key ~mode:Engine.Flat c Grid.nominal
    <> key ~mode:Engine.Hierarchical c Grid.nominal);
  Alcotest.(check string) "same triple, same key"
    (key ~mode:Engine.Flat c vth)
    (key ~mode:Engine.Flat c vth)

(* ---- deadlines ------------------------------------------------------- *)

(* A fake clock that advances 10 simulated milliseconds per reading
   makes deadline behaviour a pure function of poll count. *)
let ticking_clock ?(step_ms = 10.0) () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. (step_ms /. 1000.0);
    !t

let test_deadline_yields_single_error_row () =
  let d = Serve.create ~clock:(ticking_clock ()) () in
  let out =
    Serve.handle_line d
      (Serve.request_line ~request_id:"slow" ~deadline_ms:15 ~grid:grid_text
         ())
  in
  (match out with
  | [ e ] ->
      Alcotest.(check bool) "deadline_exceeded" true
        (contains e "\"status\":\"deadline_exceeded\"");
      Alcotest.(check bool) "code 10" true (contains e "\"code\":10");
      Alcotest.(check bool) "attributed" true
        (contains e "\"request_id\":\"slow\"");
      Alcotest.(check bool) "budget in message" true (contains e "15 ms")
  | other ->
      Alcotest.failf "expected exactly one error row, got %d line(s)"
        (List.length other));
  (* no deadline => the same daemon still completes the request *)
  let ok =
    Serve.handle_line d
      (Serve.request_line ~request_id:"ok" ~seed:7 ~grid:grid_text ())
  in
  Alcotest.(check int) "full response after a deadline" (n_rows + 1)
    (List.length ok)

let test_generous_deadline_does_not_fire () =
  let d = Serve.create ~clock:(ticking_clock ()) () in
  let out =
    Serve.handle_line d
      (Serve.request_line ~request_id:"q" ~seed:7 ~deadline_ms:10_000_000
         ~grid:grid_text ())
  in
  Alcotest.(check int) "rows + done" (n_rows + 1) (List.length out);
  let plain = Serve.create () in
  let expected =
    Serve.handle_line plain
      (Serve.request_line ~request_id:"q" ~seed:7 ~grid:grid_text ())
  in
  (* deadline plumbing must not change a byte of the rows *)
  Alcotest.(check (list string))
    "rows identical with and without a deadline"
    (rows_of ~request_id:"q" expected)
    (rows_of ~request_id:"q" out)

(* An adaptive grid polls its deadline once per shared sampling pass:
   two moments pairs give two context-build polls and two pass polls,
   not one per target.  Whichever poll the budget runs out at — even
   the last, after the first pair's pass has finished — the response
   is exactly one deadline_exceeded row and no partial rows. *)
let test_deadline_on_adaptive_grid () =
  let grid =
    "stages 100,6 100,6 95,5\n\
     rho 0.3\n\
     stages 100,5 98,4\n\
     targets 100,106,112\n\
     method adaptive\n"
  in
  let polls = ref 0 in
  let counting () =
    let tick = ticking_clock () in
    fun () ->
      incr polls;
      tick ()
  in
  let request deadline_ms =
    polls := 0;
    let d = Serve.create ~clock:(counting ()) () in
    Serve.handle_line d
      (Serve.request_line ~request_id:"a" ~seed:7 ~deadline_ms ~grid ())
  in
  let full = request 10_000_000 in
  Alcotest.(check int) "6 rows + done" 7 (List.length full);
  Alcotest.(check int) "start + 2 builds + 2 shared passes" 5 !polls;
  for k = 0 to 3 do
    match request ((10 * k) + 5) with
    | [ e ] ->
        Alcotest.(check bool)
          (Printf.sprintf "expiry at poll %d: deadline_exceeded" (k + 1))
          true
          (contains e "\"status\":\"deadline_exceeded\"")
    | other ->
        Alcotest.failf "expiry at poll %d: expected one error row, got %d line(s)"
          (k + 1) (List.length other)
  done;
  Alcotest.(check (list string)) "a budget past the last poll changes nothing"
    full (request 45)

(* ---- transports ------------------------------------------------------ *)

let test_serve_channels_round_trip () =
  let tmp_in = Filename.temp_file "spv_serve" ".in" in
  let tmp_out = Filename.temp_file "spv_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove tmp_in with Sys_error _ -> ());
      try Sys.remove tmp_out with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text tmp_in (fun oc ->
          List.iter
            (fun l ->
              Out_channel.output_string oc l;
              Out_channel.output_char oc '\n')
            transcript_requests);
      let d = Serve.create () in
      In_channel.with_open_text tmp_in (fun ic ->
          Out_channel.with_open_text tmp_out (fun oc ->
              Serve.serve_channels d ic oc));
      let got =
        In_channel.with_open_text tmp_out In_channel.input_lines
      in
      Alcotest.(check (list string))
        "channel transport = handle_line, byte for byte" (run_transcript ())
        got)

let suite =
  [
    Alcotest.test_case "golden transcript: byte-identical across daemons, \
                        jobs and workers" `Quick test_transcript_byte_identical;
    Alcotest.test_case "served rows = one-shot sweep JSONL" `Quick
      test_rows_match_one_shot_sweep;
    Alcotest.test_case "oversized workers: rows = workers 1" `Quick
      test_oversized_workers;
    Alcotest.test_case "hierarchical rows = one-shot but for macro counters"
      `Quick test_hier_rows_contract;
    Alcotest.test_case "done rows report deterministic cache counters" `Quick
      test_done_row_reports_cache_counters;
    Alcotest.test_case "malformed requests: structured errors, daemon \
                        survives" `Quick test_malformed_requests_structured_errors;
    Alcotest.test_case "serve error codes mirror Errors.exit_code" `Quick
      test_error_codes_match_robust_taxonomy;
    Alcotest.test_case "cache: LRU order, eviction, counters" `Quick
      test_cache_lru_order_and_eviction;
    Alcotest.test_case "cache: capacity never changes row bytes" `Quick
      test_capacity_one_daemon_thrashes_deterministically;
    Alcotest.test_case "cache: cached contexts fingerprint-equal fresh builds"
      `Quick test_cached_ctx_fingerprints_match_fresh_builds;
    Alcotest.test_case "scenario keys separate rho/process/mode" `Quick
      test_scenario_keys_separate_what_must_differ;
    Alcotest.test_case "deadline: one error row, no partial output" `Quick
      test_deadline_yields_single_error_row;
    Alcotest.test_case "deadline: generous budget changes nothing" `Quick
      test_generous_deadline_does_not_fire;
    Alcotest.test_case "deadline: adaptive grid, one error row" `Quick
      test_deadline_on_adaptive_grid;
    Alcotest.test_case "serve_channels round-trips a transcript" `Quick
      test_serve_channels_round_trip;
  ]
