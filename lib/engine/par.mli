(** Deterministic fork/join over a persistent pool of OCaml 5 domains.

    A tiny static scheduler: [run ~jobs tasks] splits the tasks into
    [jobs] lanes by round-robin, runs every task exactly once and
    returns the results in task order.  Which lane runs which task is a
    pure function of [(jobs, n_tasks)]; which domain runs a lane is
    not, but each task owns its state and its result slot, so the
    {e results} never depend on [jobs] or on the schedule.  The engine
    exploits this: its Monte-Carlo shards are tasks, hence [jobs = 1]
    and [jobs = 4] are bit-for-bit identical.

    The lanes run on the calling domain and on helper domains of one
    process-wide pool.  Helpers are spawned on the first call that
    needs them and then park between calls; the process never holds
    more than [Domain.recommended_domain_count () - 1] of them,
    whatever [jobs] is, because every minor collection stops every
    domain, parked ones included.  That cap is the one domain budget
    shared by every caller, nested ones included (Serve's [workers]
    lanes calling the engine's [jobs] lanes). *)

val default_jobs : unit -> int
(** Worker count used when a caller does not say: the [SPV_JOBS]
    environment variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val run : jobs:int -> (unit -> 'a) array -> 'a array
(** [run ~jobs tasks] runs every task once and returns their results
    in task order.  With [min jobs (Array.length tasks) = 1] the tasks
    run in order on the calling domain and the pool is never touched.
    Otherwise lane [w] runs tasks [w], [w + jobs], ..., and the lanes
    are claimed one at a time by the caller and by idle helpers; the
    caller keeps claiming until none is left, so a call completes even
    when every helper is busy, and a task may itself call [run]
    without deadlocking.  A lane stops at its first exception; once
    every lane has ended, the exception of the lowest-numbered failing
    lane is re-raised, and the pool stays usable.  Raises
    [Invalid_argument] when [jobs <= 0]. *)
