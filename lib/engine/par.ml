let default_jobs () =
  match Sys.getenv_opt "SPV_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* One call's lanes.  [next] hands out lane numbers to whichever domain
   asks first; [pending] counts lanes not yet finished. *)
type batch = {
  lanes : int;
  next : int Atomic.t;
  pending : int Atomic.t;
  run_lane : int -> unit;
}

(* The process-wide pool.  Helpers are spawned on demand and never
   exit; there are never more than [cap] of them, because every minor
   collection stops every domain, parked ones included, so an idle
   domain beyond the core count only slows the others down.  [queue]
   holds the published batches that may still have unclaimed lanes,
   newest first; [lock] guards it and [helpers], idle helpers park on
   [work], and callers whose last lanes run elsewhere park on
   [finished]. *)
let cap = Domain.recommended_domain_count () - 1
let lock = Mutex.create ()
let work = Condition.create ()
let finished = Condition.create ()
let queue : batch list ref = ref []
let helpers = ref 0

let retire b =
  Mutex.lock lock;
  queue := List.filter (fun q -> q != b) !queue;
  Mutex.unlock lock

(* Runs the next unclaimed lane of [b], if any.  [run_lane] never
   raises, so a lane always counts itself finished. *)
let claim b =
  let w = Atomic.fetch_and_add b.next 1 in
  w < b.lanes
  && begin
       b.run_lane w;
       if Atomic.fetch_and_add b.pending (-1) = 1 then begin
         Mutex.lock lock;
         Condition.broadcast finished;
         Mutex.unlock lock
       end;
       true
     end

let rec helper () =
  Mutex.lock lock;
  while !queue = [] do
    Condition.wait work lock
  done;
  let b = List.hd !queue in
  Mutex.unlock lock;
  if not (claim b) then retire b;
  helper ()

(* The caller publishes [b], runs every lane nobody else has claimed
   (so a call finishes even when every helper is busy, which is what
   keeps nested calls from deadlocking) and then waits for the lanes
   that helpers took. *)
let run_batch b =
  Mutex.lock lock;
  let spawn = max 0 (min cap (b.lanes - 1) - !helpers) in
  helpers := !helpers + spawn;
  Mutex.unlock lock;
  for _ = 1 to spawn do
    ignore (Domain.spawn helper : unit Domain.t)
  done;
  Mutex.lock lock;
  queue := b :: !queue;
  for _ = 1 to min cap (b.lanes - 1) do
    Condition.signal work
  done;
  Mutex.unlock lock;
  while claim b do
    ()
  done;
  retire b;
  Mutex.lock lock;
  while Atomic.get b.pending > 0 do
    Condition.wait finished lock
  done;
  Mutex.unlock lock

let run ~jobs tasks =
  if jobs <= 0 then invalid_arg "Par.run: jobs <= 0";
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let jobs = min jobs n in
    if jobs = 1 then Array.map (fun f -> f ()) tasks
    else begin
      (* Round-robin static assignment: lane [w] runs tasks
         w, w+jobs, w+2*jobs, ...  Result and failure slots are
         disjoint per lane, and [pending] reaching zero publishes them
         to the caller. *)
      let results = Array.make n None in
      let failures = Array.make jobs None in
      let run_lane w =
        let i = ref w in
        try
          while !i < n do
            results.(!i) <- Some (tasks.(!i) ());
            i := !i + jobs
          done
        with e -> failures.(w) <- Some e
      in
      run_batch
        { lanes = jobs; next = Atomic.make 0; pending = Atomic.make jobs;
          run_lane };
      Array.iter (function Some e -> raise e | None -> ()) failures;
      Array.map (function Some v -> v | None -> assert false) results
    end
  end
