(** Pipeline partitioning: choosing the number of stages under
    variation.

    Section 3.1 of the paper analyses how the sigma/mu of the pipeline
    delay moves with the stage count; this module turns the analysis
    into the design decision it implies.  For a logic budget of
    [total_levels] gate levels cut into equal stages (plus a flip-flop
    per stage), it evaluates every candidate stage count and reports
    the clock period that meets a yield target, the resulting
    throughput, and the latency.

    Deterministically, more stages always shortens the clock (until
    flip-flop overhead dominates); under intra-die variation the
    statistical clock penalises deep pipelines further (eq. 12's
    per-stage budget tightens with N while shallow stages lose the
    depth-averaging of random variation), so the yield-aware optimum
    sits at fewer stages — and moves back up when inter-die variation
    dominates. *)

type candidate = {
  n_stages : int;
  depth : int;  (** logic levels per stage *)
  pipeline : Pipeline.t;
  nominal_clock : float;  (** deterministic designer's clock: max stage nominal *)
  statistical_clock : float;  (** smallest T with the target yield *)
  throughput : float;  (** 1 / statistical_clock, per ps *)
  latency : float;  (** n_stages * statistical_clock *)
}

val candidates :
  ?size:float -> ?pitch:float -> ?ff:Spv_process.Flipflop.t ->
  Spv_process.Tech.t -> total_levels:int -> yield:float ->
  stage_counts:int array -> candidate array
(** Evaluate each stage count (each must divide [total_levels]).
    [ff] defaults to the technology's default flip-flop.  [yield] in
    (0,1). *)

val all_divisor_candidates :
  ?size:float -> ?pitch:float -> ?ff:Spv_process.Flipflop.t ->
  ?min_stages:int -> ?max_stages:int -> Spv_process.Tech.t ->
  total_levels:int -> yield:float -> candidate array
(** [candidates] over every divisor of [total_levels] within
    [min_stages]..[max_stages] (defaults 1..total_levels). *)

val best_throughput : candidate array -> candidate
(** Candidate with the highest statistical throughput (ties: fewest
    stages). Requires a non-empty array. *)

val throughput_gain_over_nominal_choice : candidate array -> float
(** Relative throughput improvement from choosing the stage count with
    the statistical rather than the nominal clock: both candidates are
    evaluated at their {e statistical} clock.  >= 0 by construction. *)
