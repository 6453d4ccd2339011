(** Timing reports: exact k-longest path enumeration and an STA-style
    text report with per-path statistical delays.

    Path enumeration is best-first over path prefixes: the
    priority of a prefix ending at node v is its accumulated delay plus
    the exact best completion [suffix v] (v's delay plus {!Sta.down}:
    the longest remaining gate-path to any primary output), so paths
    pop in exact descending order of total delay and only
    O(k x fanout) states are expanded. *)

type path = {
  gates : int list;  (** gate ids, input side first *)
  nominal : float;  (** sum of gate delays along the path, ps *)
  statistical : Spv_process.Gate_delay.t;
      (** decomposed delay of the path under the variation model *)
}

val k_longest_paths :
  Spv_process.Tech.t -> Netlist.t -> k:int -> path array
(** The [k] slowest input-to-output paths in exact descending nominal
    order (fewer if the circuit has fewer distinct paths).  A gate
    reading one signal on several pins extends a path once.  Requires
    [k > 0]. *)

val path_yield : path -> t_target:float -> float
(** Pr{this path meets the target} under its decomposed Gaussian. *)

val render :
  ?k:int -> ?t_target:float -> Spv_process.Tech.t ->
  Netlist.t -> string
(** Multi-line report: circuit summary, the top-[k] (default 5) paths
    with nominal and mu/sigma delays (plus per-path yield when
    [t_target] is given), and the five most criticality-weighted gates
    from the block SSTA.  Raises [Invalid_argument] on a non-finite
    [t_target]. *)
