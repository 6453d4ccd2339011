(** Gate sizing under a statistical delay constraint — a
    Lagrangian-relaxation reimplementation in the spirit of Choi et al.
    (DAC 2004), the per-stage sizer the paper uses as its inner loop.

    Problem: minimise [sum_i area_i * x_i] subject to
    [mu(x) + z * sigma(x) <= t_target] and [l <= x_i <= u], where
    (mu, sigma) is the statistical delay of the stage's critical region
    and [z = Phi^-1(stage yield target)].

    Method: iterate a fixed-lambda coordinate relaxation with a
    subgradient lambda update.  For the Lagrangian
    [L = sum a_i x_i + lambda (D(x) - T)], the stationarity condition
    for a gate weighted by its timing criticality [w_i] gives

    [x_i = sqrt (lambda * tau * w_i * load_i
                 / (a_i + lambda * tau * sum_{f in fanin} w_f g_i / x_f))]

    where criticality weights [w_i = exp(-slack_i / theta)] smooth the
    discrete critical path (a pure critical-path formulation oscillates).
    Lambda follows a multiplicative subgradient update.  All updates
    mutate the netlist's sizes in place. *)

type options = {
  min_size : float;  (** lower bound l (default 1.0) *)
  max_size : float;  (** upper bound u (default 16.0) *)
  max_iterations : int;  (** default 120 *)
  tolerance : float;  (** relative constraint tolerance (default 5e-3) *)
  theta_fraction : float;
      (** criticality temperature as a fraction of current delay
          (default 0.05) *)
}

val default_options : options

type report = {
  iterations : int;
  converged : bool;  (** constraint met within tolerance at finish *)
  achieved : Spv_process.Gate_delay.t;  (** stage delay after sizing *)
  stat_delay : float;  (** mu + z sigma after sizing *)
  area : float;
  lambda : float;
}

val statistical_delay :
  ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t -> Spv_circuit.Netlist.t ->
  z:float -> float
(** Current [mu + z * sigma] of the stage (analytic SSTA). *)

val size_stage :
  ?options:options -> ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Spv_circuit.Netlist.t -> t_target:float -> z:float -> report
(** Size the netlist in place for [mu + z sigma <= t_target] with
    minimum area.  If the target is unreachable even at maximum sizes,
    returns [converged = false] with the best effort found.  The report
    passes the {!Certify_hook} exit-criterion check before it is
    returned. *)

val minimum_achievable_delay :
  ?options:options -> ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Spv_circuit.Netlist.t -> z:float -> float
(** Statistical delay when the sizer is pushed as fast as it will go
    (sizes restored afterwards). *)

val relaxed_delay :
  ?options:options -> ?ff:Spv_process.Flipflop.t -> Spv_process.Tech.t ->
  Spv_circuit.Netlist.t -> z:float -> float
(** Statistical delay with every gate at minimum size (sizes restored
    afterwards) — the slow end of the area-delay curve. *)
