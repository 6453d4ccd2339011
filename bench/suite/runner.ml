(* Timed passes and the metrics computed from them.

   A timed pass makes top-level calls until [seconds] have passed, at
   least [min_calls] calls ran, and the stratified schedule sits on a
   block boundary (so every pass carries whole blocks of the input mix).
   Each call's latency is recorded; an exception or a failed output
   check counts the call as failed — never dropped.

   Throughput is the median over the pass's blocks of each block's work
   units per second: every block carries the same input mix, and the
   median keeps a burst of interference on a shared machine from moving
   the figure.  Peak RSS is read at a fixed amount of work — the first
   block boundary after the workload's [rss_after] calls — so a run
   that happens to get through more calls does not read higher. *)

open Workloads

(* setup_s is the median of the set-up that the pass runs on and of
   [extra_setups] more, timed at block boundaries spread over the pass
   (outside the blocks' time), so neither a cold first set-up nor a
   slow moment of the machine moves it. *)
let extra_setups = 8
let min_calls = 100

type block = { rate : float;  (** work units per second *) traced : bool; ns : int }

type pass = {
  calls : int;
  failed : int;
  latencies_ms : float array;
  blocks : block array;
  traced_calls : int array;  (** indices of the calls made while tracing *)
  rss_kib : int;  (** peak RSS of the process under test at the mark *)
  errors : string list;  (** first few failure messages *)
}

let elapsed_s t0 = sec_of_ns (Spans.now_ns () - t0)
let error_message = function Check_failed m -> m | e -> Printexc.to_string e

(* [trace b] says whether block [b] runs with the recorder enabled;
   [between ~elapsed] runs after each block, outside its time. *)
let timed_pass ?(trace = fun _ -> false) ?(between = fun ~elapsed:_ -> ())
    (w : Workloads.t) inst tr ~seconds ~min_calls =
  let hard_cap = (3.0 *. seconds) +. 10.0 in
  let lat = ref [] and failed = ref 0 and errors = ref [] and traced_calls = ref [] in
  let blocks = ref [] and block_units = ref 0 and rss = ref None in
  let calls = ref 0 in
  let on_boundary c = c mod w.block = 0 in
  let t0 = Spans.now_ns () in
  let block_start = ref t0 in
  while
    elapsed_s t0 < hard_cap
    && not (!calls >= min_calls && on_boundary !calls && elapsed_s t0 >= seconds)
  do
    let i = !calls in
    if on_boundary i then Spans.set_enabled tr (trace (i / w.block));
    if Spans.enabled tr then traced_calls := i :: !traced_calls;
    Spans.set_call tr i;
    let c0 = Spans.now_ns () in
    (match Spans.with_span tr "call" (fun () -> inst.call i) with
    | u -> block_units := !block_units + u
    | exception e ->
        incr failed;
        if List.length !errors < 5 then errors := error_message e :: !errors);
    let c1 = Spans.now_ns () in
    lat := ms_of_ns (c1 - c0) :: !lat;
    incr calls;
    if on_boundary !calls then begin
      if !rss = None && !calls >= w.rss_after then rss := Some (inst.rss_kib ());
      let ns = c1 - !block_start in
      blocks :=
        { rate = float_of_int !block_units /. sec_of_ns ns; traced = Spans.enabled tr; ns }
        :: !blocks;
      block_units := 0;
      between ~elapsed:(elapsed_s t0);
      block_start := Spans.now_ns ()
    end
  done;
  Spans.set_call tr (-1);
  Spans.set_enabled tr false;
  {
    calls = !calls;
    failed = !failed;
    latencies_ms = Array.of_list (List.rev !lat);
    blocks = Array.of_list (List.rev !blocks);
    traced_calls = Array.of_list (List.rev !traced_calls);
    rss_kib = (match !rss with Some r -> r | None -> inst.rss_kib ());
    errors = List.rev !errors;
  }

let ops_per_s ?(traced = false) p =
  match List.filter (fun b -> b.traced = traced) (Array.to_list p.blocks) with
  | [] -> Float.nan
  | bs -> Stats.median (Array.of_list (List.map (fun b -> b.rate) bs))

type run = {
  workload : string;
  jobs : int;
  unit_ : string;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : metric list;
}

let correct r = r.failed = 0 && r.errors = []
let pin_jobs (w : Workloads.t) = Unix.putenv "SPV_JOBS" (string_of_int w.jobs)

(* One set-up and its wall time. *)
let setup_once (w : Workloads.t) ~seed tr =
  let t0 = Spans.now_ns () in
  let inst = w.setup ~seed tr in
  let dt = elapsed_s t0 in
  (inst, dt)

let warmup_errors inst =
  match inst.warmup () with () -> [] | exception e -> [ "warm-up: " ^ error_message e ]

(* The end-to-end run: tracing off throughout. *)
let end_to_end (w : Workloads.t) ~seed ~seconds =
  pin_jobs w;
  let tr = Spans.create ~workload:w.name () in
  let inst, first = setup_once w ~seed tr in
  let setups = ref [ first ] in
  let between ~elapsed =
    let k = List.length !setups - 1 in
    if k < extra_setups && elapsed >= float_of_int k *. seconds /. float_of_int extra_setups
    then begin
      let extra, dt = setup_once w ~seed tr in
      extra.close ();
      setups := dt :: !setups
    end
  in
  let warm, p =
    Fun.protect ~finally:inst.close (fun () ->
        let warm = warmup_errors inst in
        (warm, timed_pass ~between w inst tr ~seconds ~min_calls))
  in
  let setup_s = Stats.median (Array.of_list !setups) in
  let pct q =
    match Stats.percentile_checked p.latencies_ms q with
    | Ok v -> (v, [])
    | Error e -> (Stats.percentile p.latencies_ms q, [ e ])
  in
  let p50, e50 = pct 0.5 and p90, e90 = pct 0.9 in
  {
    workload = w.name;
    jobs = w.jobs;
    unit_ = w.unit_;
    attempted = p.calls;
    failed = p.failed;
    errors = warm @ p.errors @ e50 @ e90;
    metrics =
      [
        metric "setup_s" "s" setup_s;
        metric "ops_per_s" "ops/s" (ops_per_s p);
        metric "call_p50_ms" "ms" p50;
        metric "call_p90_ms" "ms" p90;
        metric "rss_peak_mb" "MiB" (float_of_int p.rss_kib /. 1024.0);
        metric "failed_frac" "ratio" (float_of_int p.failed /. float_of_int (max 1 p.calls));
      ];
  }

(* Self time of every layer span of the traced calls over the traced
   blocks' wall time; only the root "call" spans' own time is
   unattributed. *)
let coverage tr p =
  let spans = List.filter (fun s -> s.Spans.call_id >= 0) (Spans.spans tr) in
  let attributed =
    List.fold_left
      (fun acc ((s : Spans.span), self) -> if s.name = "call" then acc else acc + self)
      0 (Spans.self_times spans)
  in
  let traced_ns =
    Array.fold_left (fun acc b -> if b.traced then acc + b.ns else acc) 0 p.blocks
  in
  float_of_int attributed /. float_of_int traced_ns

(* The traced run of one workload: one pass of twice [seconds] whose
   blocks alternate between tracing off and on, so the two halves see
   the same input mix and the same drift of the machine; then the
   workload's per-layer measurements.  Returns the run (metrics
   prefixed with the workload name) and the span JSONL. *)
let traced (w : Workloads.t) ~seed ~seconds =
  pin_jobs w;
  let tr = Spans.create ~workload:w.name () in
  Spans.set_enabled tr true;
  let inst = w.setup ~seed tr in
  Spans.set_enabled tr false;
  let warm, p, layer_errors, layers =
    Fun.protect ~finally:inst.close (fun () ->
        let warm = warmup_errors inst in
        let p =
          timed_pass w inst tr ~trace:(fun b -> b mod 2 = 1) ~seconds:(2.0 *. seconds)
            ~min_calls:(2 * w.block)
        in
        Spans.set_enabled tr true;
        let layer_errors, layers =
          match inst.layers ~calls:p.traced_calls ~budget_s:(seconds /. 2.0) with
          | ms -> ([], ms)
          | exception e -> ([ "layers: " ^ error_message e ], [])
        in
        Spans.set_enabled tr false;
        (warm, p, layer_errors, layers))
  in
  let overhead = 1.0 -. (ops_per_s ~traced:true p /. ops_per_s p) in
  let prefix (m : metric) = { m with name = w.name ^ "." ^ m.name } in
  ( {
      workload = w.name;
      jobs = w.jobs;
      unit_ = w.unit_;
      attempted = p.calls;
      failed = p.failed;
      errors = warm @ p.errors @ layer_errors;
      metrics =
        List.map prefix
          (layers
          @ [
              metric "trace.overhead_frac" "ratio" overhead;
              metric "trace.coverage_frac" "ratio" (coverage tr p);
            ]);
    },
    Spans.to_jsonl tr )
