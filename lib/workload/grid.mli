(** Declarative scenario grids for the batched sweep runner.

    A grid is the cross product

      sources x processes x methods x T_targets

    where a source is either a moments-level pipeline (stage (mu,
    sigma) pairs under a uniform correlation) or a gate-level circuit,
    and a process is a named variant of the technology's inter-die Vth
    sigma.  Moments sources carry no process dependence (their moments
    are given, not derived from a technology), so they are evaluated
    under the nominal process only; circuit sources are evaluated under
    every process variant.

    {2 Grid file format}

    One directive per line, [#] starts a comment:

    {v
    circuit c432              # builtin name or .bench path (via lookup)
    rho 0.3                   # uniform correlation for later `stages`
    stages 100,6 100,6 95,5   # moments source: one mu,sigma per stage
    targets 100,110,120       # explicit list (accumulates), or
    targets 100:140:9         # lo:hi:count, endpoints inclusive
    method clark,mc           # estimator names (accumulates)
    inter_vth_mv 60           # adds process variant "vth60mv"
    samples 20000             # fixed-n draw count (mc / importance)
    shards 8                  # RNG substreams per estimator run
    v} *)

type source =
  | Moments of {
      label : string;
      stages : (float * float) array;  (** (mu, sigma) per stage, ps *)
      rho : float;  (** uniform stage correlation *)
    }
  | Circuit of { label : string; net : Spv_circuit.Netlist.t }

type process = {
  p_label : string;
  inter_vth_mv : float option;
      (** [None] = nominal technology; [Some mv] overrides the
          inter-die Vth sigma via {!Spv_process.Tech.with_inter_vth} *)
}

type t = {
  sources : source list;
  processes : process list;  (** nominal is always first *)
  targets : float array;  (** T_target sweep, ps *)
  methods : Spv_engine.Engine.method_ list;
  n : int;  (** fixed-n sample count for mc / importance *)
  shards : int;
}

val nominal : process
(** The always-present baseline process (no override). *)

val source_label : source -> string

val builtin_circuits : (string * (unit -> Spv_circuit.Netlist.t)) list
(** The named benchmark circuits (c432, c1908, c2670, c3540, rca8,
    alu8, dec4, chain10) — the single table shared by the CLI and grid
    files. *)

val builtin_lookup : string -> (Spv_circuit.Netlist.t, string) result
(** Resolve a name against {!builtin_circuits} only (no file system). *)

val groups : t -> (source * process) list
(** The (source, process) pairs to build one engine context each for,
    in expansion order: each moments source under {!nominal} only,
    each circuit source under every entry of [processes]. *)

val n_scenarios : t -> int
(** Total scenario count after expansion:
    [|groups| x |methods| x |targets|]. *)

val validate : t -> (unit, string) result
(** Structural checks: at least one source / target / method, finite
    targets, positive [n] and [shards], stage moments finite with
    [sigma >= 0], [rho] in [-1, 1]. *)

val smoke : unit -> t
(** The built-in smoke grid (two moments sources, one circuit, two
    processes, three methods, ten targets — 120 scenarios), used by
    [spv sweep --smoke] and the determinism tests. *)

type parse_error = { line : int option; message : string }

val parse_error_to_string : parse_error -> string

val of_string :
  ?lookup:(string -> (Spv_circuit.Netlist.t, string) result) ->
  string -> (t, parse_error) result
(** Parse a grid file.  [lookup] resolves [circuit] directives
    (default {!builtin_lookup}; the CLI passes a resolver that also
    accepts .bench paths).  Errors carry the 1-based offending line.
    The parsed grid is already {!validate}d. *)
