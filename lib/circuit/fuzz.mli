(** Weight-attenuated random netlist generation for differential
    fuzzing (Verismith-style).

    The generator grows a pipeline of structured DAG stages level by
    level.  Every growth decision — add another level, add another
    gate to the current level, take a long-range (reconvergent) fanin —
    is a biased coin whose probability is the configured base rate
    multiplied by [attenuation^level], so expected depth, width and
    reconvergence stay finite without hard truncation dominating the
    shape.  Hard caps ([max_depth], [max_gates], [max_stages]) still
    bound the worst case, so no run is unbounded.

    Everything is driven by an explicit {!Spv_stats.Rng.t}: equal
    generator states produce bit-identical netlists, which is what
    makes fuzz findings replayable from a seed alone.

    Gate sizes are quantized to multiples of 1/4 so that `.bench`
    round-trips ({!Bench_format.to_string}'s [%g] size annotations)
    are exact — a filed repro case re-parses to the bit-identical
    circuit. *)

type config = {
  max_stages : int;  (** pipeline stages drawn in [1 .. max_stages] *)
  max_gates : int;  (** hard per-stage gate cap *)
  max_depth : int;  (** hard per-stage logic-level cap *)
  min_inputs : int;
  max_inputs : int;
  grow_p : float;  (** base probability of adding one more level *)
  width_p : float;  (** base probability of widening the current level *)
  reconv_p : float;
      (** base probability that a non-pinned fanin reaches back past the
          previous level (reconvergent, long-range) *)
  attenuation : float;
      (** per-level decay factor in (0, 1) applied to the three
          probabilities above *)
  max_size : float;  (** gate drive sizes drawn in [1/4 .. max_size] *)
}

val default_config : config
(** 3 stages, 80 gates, 12 levels, 2–6 inputs, grow 0.9 / width 0.85 /
    reconv 0.35, attenuation 0.8, sizes up to 4x. *)

val quantize_size : config -> float -> float
(** Clamp to [1/4, max_size] and round to the nearest multiple of 1/4
    (the size grid every generated or mutated gate lives on). *)

val promote_dangling : Netlist.t -> Netlist.t
(** Append any fanout-free non-output gate to the output list (the
    lint-validity repair every generator/mutation step ends with;
    exposed for the shrinker). *)

val generate_stage : ?config:config -> ?name:string -> Spv_stats.Rng.t -> Netlist.t
(** One attenuated random stage.  Deterministic in the generator
    state; every gate either has fanout or is an output. *)

val generate : ?config:config -> Spv_stats.Rng.t -> Netlist.t array
(** A random pipeline: stage count in [1 .. max_stages], then one
    {!generate_stage} per stage. *)

(** {1 Semantics-preserving mutations}

    Each mutation maps a valid pipeline to a valid pipeline (all
    netlist invariants re-validated through {!Netlist.make}); the
    estimators' contracts must survive all of them. *)

type mutation =
  | Resize  (** re-draw the drive size of a few random gates *)
  | Split_stage
      (** cut one stage at a level boundary into two pipeline stages,
          the cut wires becoming stage-boundary inputs/outputs *)
  | Merge_stages
      (** fuse two adjacent stages, wiring the first stage's outputs
          into the second's former primary inputs *)
  | Swap_stages
      (** exchange two stage positions — a correlation-structure
          perturbation: stage logic is unchanged but the spatial
          (distance-based) correlation between stages is not *)

val mutate :
  ?config:config -> Spv_stats.Rng.t -> Netlist.t array -> Netlist.t array
(** Apply one randomly chosen applicable mutation.  Falls back to
    [Resize] when the drawn mutation does not apply (e.g.
    [Merge_stages] on a single-stage pipeline).  Deterministic in the
    generator state; input array is not modified. *)

(** {1 Process-scenario fuzzing} *)

type process = {
  inter_vth_mv : float option;  (** inter-die Vth sigma override, mV *)
  random_vth_mv : float option;  (** intra-die random Vth sigma, mV *)
  sys_vth_mv : float option;  (** intra-die systematic Vth sigma, mV *)
  leff_rel_inter : float option;  (** inter-die relative Leff sigma *)
}
(** A process-scenario override: [None] keeps the technology's value.
    All sampled values stay within lint-legal ranges (Vth sigmas in
    [0, 80] mV, relative Leff sigma in [0, 0.15]). *)

val nominal_process : process
(** No overrides. *)

val random_process : Spv_stats.Rng.t -> process
(** Each knob overridden with probability 1/2.  Values are quantized
    to 0.1 mV (resp. 1e-3) so they print/parse exactly with [%g]. *)

val apply_process : Spv_process.Tech.t -> process -> Spv_process.Tech.t

val process_to_string : process -> string
(** Compact one-line form, e.g. ["inter=55.3 sys=12.4"]; ["nominal"]
    when nothing is overridden.  Round-trips through
    {!process_of_string}. *)

val process_of_string : string -> (process, string) result
