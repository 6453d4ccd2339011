(** Sharded evaluation daemon over the sweep runner.

    [Serve] turns the one-shot {!Sweep} pipeline into a persistent
    service: schema-versioned JSONL requests arrive on stdin (or a
    Unix-domain socket), each carrying a {!Grid} scenario query plus a
    seed, parallelism knobs and an optional per-request deadline, and
    the daemon streams back the established sweep row schema — one
    [row] response line per scenario, one [done] summary line per
    request, structured [error] lines for anything that fails.

    {2 Request schema (version 1)}

    One flat JSON object per line:

    {v
    {"schema_version":1,"request_id":"q1","grid":"stages 100,6\n...",
     "seed":7,"jobs":2,"workers":2,"deadline_ms":5000,
     "mode":"flat"}
    v}

    [schema_version], [request_id] and [grid] (a grid file as one
    string, {!Grid.of_string} syntax, circuits resolved by the
    daemon's lookup) are required; everything else is optional.
    [jobs] is the engine's trial-level parallelism (never changes
    bytes), [workers] shards independent (source, process) contexts
    across domains (never changes bytes either — see design notes),
    [deadline_ms] bounds the whole request.  [seed], [jobs], [workers]
    and [deadline_ms] must be integral JSON numbers below [2^62]
    (OCaml's int range) and at least their minimum; anything else is a
    domain error.  A key outside this schema is a domain error that
    lists the known keys, and a key given twice is a parse error, so
    a field the daemon does not honour is never silently dropped.
    [Importance] scenarios always sample with the engine's importance
    proposal; each row's [proposal] field says which one ran.

    {2 Response schema (version 1)}

    Every response line is a flat wrapper tagged [kind]:

    - [{"schema_version":1,"kind":"row","request_id":"q1","row":{...}}]
      — [row] is exactly one {!Sweep.row_to_json} object
      (sweep schema, currently version {!Sweep.schema_version}): in
      flat mode byte-identical to the one-shot {!Sweep.run} row, in
      hierarchical mode identical except [macro_hits]/[macro_misses]
      (see Determinism).
    - [{"schema_version":1,"kind":"done","request_id":"q1","status":"ok",
       "code":0,"rows":120,"n_contexts":4,"cache_size":4,
       "cache_hits":0,"cache_misses":4,"cache_evictions":0}]
    - [{"schema_version":1,"kind":"error","request_id":"q1"|null,
       "status":"parse_error","code":3,"message":"..."}]

    Error [status]/[code] pairs mirror the CLI exit-code taxonomy of
    [Spv_robust.Errors] (parse 3, domain 6, internal 7, deadline 10);
    [request_id] is [null] only when the request line was too broken
    to recover it.  A failed request never kills the daemon, and a
    deadline produces a single [deadline_exceeded] error line instead
    of partial rows.

    {2 Determinism}

    Replay is exact: from a fresh daemon, a transcript of requests
    yields byte-identical response bytes regardless of [jobs] and
    [workers], and per-row bytes are independent of the cache state.
    Rows come from {!Sweep.group_rows} over {!Grid.groups}, so flat
    rows are byte-identical to the one-shot sweep of the same grid and
    seed.  Hierarchical rows are identical except [macro_hits] and
    [macro_misses]: each cache miss is built with {!Sweep.build} on a
    fresh macro table and hits replay those counters, so they report a
    fresh-table build of that context whatever the cache history,
    where the one-shot sweep shares one table across the grid.  Cache
    bookkeeping runs serially in expansion order; only the per-group
    evaluation fans out. *)

val request_schema_version : int
val response_schema_version : int

(** LRU cache of evaluation contexts, keyed on
    (source fingerprint, process, mode) via {!scenario_key}.  The most
    recently used entry is kept at the front; inserting beyond
    [capacity] evicts the least recently used.  Counters are
    monotonic over the cache's lifetime. *)
module Cache : sig
  type entry = {
    ctx : Spv_engine.Engine.Ctx.t;
    macro_hits : int;  (** macro-table hits recorded when first built *)
    macro_misses : int;  (** misses (characterisations) at build time *)
  }

  type t

  val create : capacity:int -> t
  (** Raises [Invalid_argument] when [capacity <= 0]. *)

  val capacity : t -> int
  val length : t -> int
  val hits : t -> int
  val misses : t -> int
  val evictions : t -> int

  val find : t -> string -> entry option
  (** Probe; a hit moves the entry to the front and bumps [hits], a
      miss bumps [misses]. *)

  val add : t -> string -> entry -> unit
  (** Insert at the front (replacing any entry under the same key);
      evicts from the back when over capacity. *)

  val keys : t -> string list
  (** Most-recently-used first — exposed for tests. *)
end

val scenario_key :
  mode:Spv_engine.Engine.mode -> Grid.source -> Grid.process -> string
(** The cache key a (source, process, mode) triple resolves to.
    Circuit sources key on {!Spv_circuit.Macro.hash} (structure +
    sizes), moment sources on the exact [%.17g] stage moments and
    correlation, and the process override / engine mode are appended —
    two triples with equal keys build contexts with equal
    {!Spv_engine.Engine.Ctx.fingerprint}s. *)

type error = { status : string; code : int; message : string }
(** One structured failure: [status] is the kebab/snake-case
    constructor name ([parse_error], [domain_error],
    [internal_error], [deadline_exceeded]), [code] the matching CLI
    exit code (3, 6, 7, 10 — same values as
    [Spv_robust.Errors.exit_code], duplicated here because
    [Spv_robust] sits above this library). *)

type t
(** Daemon state: the context cache, the clock and the grid lookup.
    One value serves many requests (and many connections). *)

val create :
  ?clock:(unit -> float) ->
  ?capacity:int ->
  ?tech:Spv_process.Tech.t ->
  ?lookup:(string -> (Spv_circuit.Netlist.t, string) result) ->
  unit -> t
(** [clock] (default [Unix.gettimeofday]) is only consulted for
    deadlines — tests inject a fake clock to make deadline rows
    deterministic.  [capacity] (default 32) bounds the context cache.
    [lookup] (default {!Grid.builtin_lookup}) resolves [circuit]
    directives in request grids. *)

val cache : t -> Cache.t

val request_line :
  ?seed:int -> ?jobs:int -> ?workers:int -> ?deadline_ms:int ->
  ?mode:string -> request_id:string -> grid:string -> unit -> string
(** Format a valid request line (no trailing newline) — the encoder
    matching {!handle_line}'s parser, used by the CLI smoke mode,
    tests and benchmarks. *)

val handle_line : t -> string -> string list
(** Process one request line and return the response lines (each one
    JSON object, no trailing newline): [row]* [done] on success, a
    single [error] otherwise.  Never raises; unparseable input,
    unknown schema versions, grid errors, deadlines and escaped
    exceptions all become [error] lines.  Empty (whitespace-only)
    lines yield [[]]. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Read request lines from the channel until EOF, writing each
    request's response lines (newline-terminated, flushed per
    request) — the stdin transport of [spv serve]. *)

val serve_socket : ?max_conns:int -> t -> path:string -> unit
(** Listen on a Unix-domain socket at [path] (unlinking any stale
    socket first) and serve each accepted connection sequentially
    with {!serve_channels}.  Connections share the daemon state, so
    the context cache stays warm across clients.  Stops after
    [max_conns] connections when given (tests/CI); loops forever
    otherwise. *)
