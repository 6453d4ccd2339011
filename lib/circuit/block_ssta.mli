(** Block-based statistical static timing analysis.

    Propagates {!Canonical} arrival forms through the netlist in
    topological order: gate delays add, reconverging arrivals combine
    with the canonical Clark max.  Unlike the critical-path composition
    in {!Ssta.analyse_stage}, this captures the max over {e all} paths
    — on multi-path circuits the block mean sits above the single-path
    mean, matching gate-level Monte-Carlo much more closely.

    All gates of one netlist share the same inter-die and systematic
    parameters (one stage = one die locale), matching the gate-level
    Monte-Carlo sampler ({!Ssta.sampler}) on a one-stage pipeline. *)

type result = {
  arrivals : Canonical.t array;  (** per node *)
  output : Canonical.t;  (** canonical max over primary outputs *)
  criticality : float array;
      (** per node: probability mass with which the node's arrival
          dominated each [max] it entered on the way to the latest
          output — 1.0 along a deterministic critical path, fractional
          where paths compete.  Heuristic (tightness-product), used for
          diagnostics and sizing weights. *)
}

val run : Spv_process.Tech.t -> Netlist.t -> result
(** Block SSTA of the combinational netlist under its current sizes:
    {!Sta.forward} over canonical forms, each gate folding its fanins
    with the Clark max from the first fanin in pin order. *)

val stage_delay :
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Netlist.t -> Spv_process.Gate_delay.t
(** Stage delay (combinational output max + optional flip-flop
    overhead) as a decomposed delay, ready for {!Spv_core.Stage}. *)

val compare_with_path_based :
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Netlist.t -> Spv_stats.Gaussian.t * Spv_stats.Gaussian.t
(** (path-based, block-based) stage Gaussians for the same netlist —
    the accuracy-ablation helper. *)
