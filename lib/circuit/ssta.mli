(** Statistical static timing analysis over netlists.

    Two complementary engines:

    - {b analytic}: compose decomposed per-gate delay Gaussians along
      the nominal critical path (plus flip-flop overhead) into a
      per-stage {!Spv_process.Gate_delay.t} — this is what the paper
      feeds its pipeline model with (their SPICE-extracted mu_i,
      sigma_i);
    - {b Monte-Carlo}: sample whole-die variation, re-time every
      stage with per-gate delay factors and collect stage or pipeline
      delay samples — this is the paper's verification reference. *)

type stage_analysis = {
  comb : Spv_process.Gate_delay.t;  (** combinational critical path *)
  total : Spv_process.Gate_delay.t;  (** comb + clk-to-Q + setup *)
  nominal : Sta.result;
}

val compose_path :
  Spv_process.Tech.t -> Netlist.t -> gate_delays:float array -> int list ->
  Spv_process.Gate_delay.t
(** Decomposed delay of a gate path: each gate's delay as
    [Gate_delay.of_nominal], summed in path order. *)

val analyse_stage :
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Netlist.t -> stage_analysis
(** Analytic per-stage delay decomposition. Flip-flop overhead is
    included when [ff] is given. *)

val stage_gaussian :
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Netlist.t -> Spv_stats.Gaussian.t
(** Convenience: total stage delay as N(mu, sigma). *)

(** {2 Gate-level sampling kernel}

    The one place gate-level Monte-Carlo trials are drawn; the
    domain-parallel loops in [Spv_engine.Engine] ([gate_level_delays],
    [gate_level_stage_samples]) are built on it.  It has two parts: an
    immutable {!plan}, built once per call and shared read-only by
    every shard, and a per-shard {!sampler} that owns the float scratch
    a trial draws into, so a trial allocates nothing but its boxed
    result (and, under [exact], the alpha-power calls). *)

type plan
(** Per-gate nominal delays ({!Sta.gate_delay}) and random-Vth sigmas,
    the netlists' CSR view, the flip-flop overhead and the Cholesky
    factor of the stage-position correlation.  Immutable; safe to
    share across domains.  It snapshots the netlists' sizes: rebuild
    it after a resize. *)

val plan :
  ?exact:bool -> ?pitch:float ->
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t -> Netlist.t array ->
  plan
(** Plan a pipeline of stages laid out in a row at [pitch] (default
    1.0) die units.  [exact] (default false) evaluates each gate's
    factor with the alpha-power law instead of its linearisation.
    Raises [Invalid_argument] on an empty stage array. *)

type sampler
(** One shard's scratch: the trial's normals, the spatial field, the
    per-node gate delays and arrivals, the per-stage delays.  Use one
    sampler per domain; a sampler must not be shared by concurrent
    draws. *)

val sampler : plan -> sampler

val draw_stage_delays_into :
  sampler -> Spv_stats.Rng.t -> Float.Array.t -> unit
(** One Monte-Carlo trial: writes each stage's delay
    [Tcq + comb + Tsetup] to the array, which needs one entry per
    stage ([Invalid_argument] otherwise).  Draw order: the field's
    normals (one per stage), the inter-die Leff shift, the inter-die
    Vth shift, then per stage one random-Vth normal per gate in
    {!Netlist.gate_ids} order followed by the flip-flop's. *)

val draw_pipeline_delay : sampler -> Spv_stats.Rng.t -> float
(** One Monte-Carlo trial: the pipeline delay
    [max_i (Tcq + comb_i + Tsetup)]. *)
