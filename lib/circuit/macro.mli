(** Timing macros: pre-characterised sub-netlist abstractions.

    A macro reduces a combinational (sub-)netlist to a single
    {!Canonical} arrival form — mean, sigma and a sensitivity vector
    over the shared noise-symbol basis (the inter-die and systematic
    standard normals, plus an aggregated independent component).  The
    basis is the same one [Spv_analysis.Affine] names [Vth_inter] /
    [Sys] / [Rand], so macro sensitivities compose with the affine
    domain's symbols one-to-one.

    {b Decomposition.}  [partition] cuts a netlist into contiguous
    {e level bands}: block [k] holds the gates whose logic level falls
    in the band's range, and every fanin crossing the band boundary is
    materialised as a fresh primary input of the block.  Band
    boundaries depend only on the netlist structure (never on sizes),
    so a resize perturbs exactly the blocks whose gates changed.

    {b Characterisation.}  [characterise] runs {!Block_ssta} over the
    block — per-gate canonical forms folded with the canonical Clark
    [max] — and keeps the resulting output form.  Block outputs drive
    the fixed {!Netlist.output_load} boundary load; the real fanout
    load of the next band is {e not} seen.  This keeps blocks
    self-contained (and hence memoisable per (hash, process) key) at
    the cost of a modelled boundary-load gap, which the engine reports
    as the flat-vs-hierarchical error bound.

    {b Composition.}  [series] is {!Canonical.add} — exact in the
    shared basis, so inter-block correlation through the global
    parameters is preserved.  [merge] is the canonical Clark
    {!Canonical.max}, the same operator {!Block_ssta} folds arrivals
    with.  A stage delay is the series composition of its band macros
    (sum of per-band maxes): a path-coverage over-approximation of the
    all-paths max, reported honestly via the error bound rather than
    hidden. *)

type t = {
  label : string;
  n_gates : int;  (** gates abstracted by this macro *)
  delay : Canonical.t;
      (** combinational delay form: canonical max over the block's
          exposed outputs *)
}

type block = {
  b_index : int;  (** position of the band, input side first *)
  b_net : Netlist.t;  (** materialised sub-netlist (cut fanins are inputs) *)
  b_gates : int array;  (** parent gate ids in this band, ascending *)
}

val partition : ?target_gates:int -> Netlist.t -> block array
(** Level-band decomposition.  Deterministic; bands are contiguous
    level ranges chosen so each holds roughly [target_gates] (default
    2048) gates
    (at least one level per band).  Every gate lands in exactly one
    band.  Raises [Invalid_argument] if the netlist has no gates or
    [target_gates <= 0]. *)

val hash : Netlist.t -> int64
(** 64-bit FNV-1a over the netlist structure (node kinds, fanins,
    names of primary inputs and the output list), combined with
    FNV-1a over the float bits of the current drive sizes — the
    memoisation key component for the netlist's current sized
    state. *)

val characterise :
  Spv_process.Tech.t -> Netlist.t -> t
(** Reduce a (sub-)netlist to a macro via {!Block_ssta.run}. *)

val series : t -> t -> t
(** Series composition ({!Canonical.add}): exact in the shared basis. *)

val merge : t -> t -> t
(** Parallel merge: the canonical Clark {!Canonical.max}. *)

val stage_delay :
  ?ff:Spv_process.Flipflop.t -> t array -> Spv_process.Gate_delay.t
(** Series-compose the band macros of one stage and add the flip-flop
    overhead when given.  Raises [Invalid_argument] on an empty
    array. *)

(** Memoisation table shared across evaluation contexts.

    Keys pair a netlist hash with a {e fingerprint} of everything else
    characterisation reads (technology parameters and flip-flop
    overhead; the boundary load is the fixed {!Netlist.output_load}),
    so one table can serve a whole process-
    override sweep: a scenario re-characterises only the blocks whose
    (hash, fingerprint) key is new.  [hits]/[misses] count block-macro
    demands: a memoised whole-stage entry counts one hit per block it
    reuses.  Tables are mutated only while contexts are being built
    (single-threaded); estimator evaluation never touches them, so
    worker-domain counts cannot change any byte of a sweep's output. *)
module Table : sig
  type macro = t

  type stage_entry = {
    se_blocks : block array;
    se_macros : macro array;
    se_delay : Spv_process.Gate_delay.t;
        (** series-composed combinational delay, no flip-flop *)
  }

  type t

  val create : unit -> t
  val hits : t -> int
  val misses : t -> int
  val reset_counters : t -> unit

  val fingerprint : ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t -> string
  (** Canonical encoding of every parameter a characterisation (or a
      flat stage analysis) depends on besides the netlist itself. *)

  val stage_hash : t -> Netlist.t -> int64
  (** {!hash} with the structure part cached by physical identity
      (sound: netlist structure is immutable; sizes are re-hashed on
      every call). *)

  val stage :
    t -> fp:string -> ?stage_key:int64 -> ?target_gates:int ->
    Spv_process.Tech.t -> Netlist.t -> stage_entry
  (** Memoised partition + characterisation of a whole stage netlist
      under its current sizes.  A stage-level hit reuses every block
      macro of the entry (counted as block hits); a miss reuses the
      cached structure-only band plan and probes each band under its
      current member sizes, so only the bands a resize actually
      touched are re-materialised and re-characterised.  [stage_key]
      short-circuits {!stage_hash} when the caller already computed it
      (e.g. once per distinct physical netlist of a pipeline). *)

  val flat_analysis :
    t -> fp:string -> ?stage_key:int64 -> ?ff:Spv_process.Flipflop.t ->
    Spv_process.Tech.t -> Netlist.t -> Ssta.stage_analysis
  (** Memoised {!Ssta.analyse_stage} keyed on the same (hash,
      fingerprint) pair — the flat reference model a hierarchical
      context reports its error bound against.  Not counted in
      [hits]/[misses].  [stage_key] as in {!stage}. *)
end
