(** Statistical static timing analysis over netlists.

    Two complementary engines:

    - {b analytic}: compose decomposed per-gate delay Gaussians along
      the nominal critical path (plus flip-flop overhead) into a
      per-stage {!Spv_process.Gate_delay.t} — this is what the paper
      feeds its pipeline model with (their SPICE-extracted mu_i,
      sigma_i);
    - {b Monte-Carlo}: sample whole-die variation worlds, re-run STA
      with per-gate delay factors and collect stage or pipeline delay
      samples — this is the paper's verification reference. *)

type stage_analysis = {
  comb : Spv_process.Gate_delay.t;  (** combinational critical path *)
  total : Spv_process.Gate_delay.t;  (** comb + clk-to-Q + setup *)
  nominal : Sta.result;
}

val analyse_stage :
  ?output_load:float -> ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Netlist.t -> stage_analysis
(** Analytic per-stage delay decomposition. Flip-flop overhead is
    included when [ff] is given. *)

val stage_gaussian :
  ?output_load:float -> ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Netlist.t -> Spv_stats.Gaussian.t
(** Convenience: total stage delay as N(mu, sigma). *)

(** {2 Single-trial sampler kernel}

    The sampler is the one place gate-level Monte-Carlo trials are
    drawn; the domain-parallel loops in [Spv_engine.Engine]
    ([gate_level_delays], [gate_level_stage_samples]) are built on it.
    Construction pre-computes the die layout, the spatial-correlation
    factorisation and per-stage scratch buffers so a trial only draws
    variation and re-runs STA. *)

type sampler
(** Cached per-trial state.  Holds mutable scratch: use one sampler per
    domain/shard; a single sampler must not be shared by concurrent
    draws. *)

val sampler :
  ?output_load:float -> ?exact:bool -> ?pitch:float ->
  ?ff:Spv_process.Flipflop.t -> ?active:bool array array ->
  Spv_process.Tech.t -> Netlist.t array -> sampler
(** Build a sampler for a pipeline of stages laid out in a row at
    [pitch] (default 1.0) die units.  Raises [Invalid_argument] on an
    empty stage array.

    [active] (one [bool] per node per stage) masks statically
    non-critical gates out of each trial's STA, as computed by
    {!Spv_analysis}'s criticality pass.  A masked trial draws exactly
    the same random numbers as an unmasked one (the per-gate random
    component is still consumed for masked gates), so when the mask only
    drops gates that can never set the stage delay the sampled delays
    are unchanged bit-for-bit — masking only skips delay-factor and
    arrival arithmetic.  Raises [Invalid_argument] on mask shape
    mismatch. *)

val sampler_stages : sampler -> int
(** Number of pipeline stages the sampler draws. *)

val draw_stage_delays : sampler -> Spv_stats.Rng.t -> float array
(** One Monte-Carlo trial: per-stage delays (fresh array). *)

val draw_pipeline_delay : sampler -> Spv_stats.Rng.t -> float
(** One Monte-Carlo trial: the pipeline delay
    [max_i (Tcq + comb_i + Tsetup)]. *)
