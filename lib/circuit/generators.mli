(** Netlist generators for the paper's workloads.

    - inverter chains and chain pipelines (Figs. 2, 3, 5, Table I);
    - a ripple-carry ALU and an address decoder (the 3-stage
      ALU–decoder pipeline of Figs. 6–8);
    - ISCAS85-scale synthetic benchmarks (Table II/III).  The real
      ISCAS85 netlists are not redistributable inside this repository,
      so [c432 .. c3540] generate deterministic pseudo-random
      structured logic with each benchmark's published primary-input
      count, gate count and logic depth — the properties the sizing
      experiments actually depend on. *)

val inverter_chain : ?name:string -> ?size:float -> depth:int -> unit -> Netlist.t
(** A chain of [depth] inverters (the paper's canonical stage). *)

val inverter_chain_pipeline :
  ?size:float -> stages:int -> depth:int -> unit -> Netlist.t array
(** [stages] identical inverter-chain stage netlists. *)

val variable_depth_pipeline :
  ?size:float -> depths:int array -> unit -> Netlist.t array
(** One inverter-chain stage per entry of [depths] (Table I's "5 x *"
    configuration). *)

val ripple_carry_adder : bits:int -> Netlist.t
(** [bits]-bit ripple-carry adder: inputs a0..a(n-1), b0..b(n-1), cin;
    outputs sum bits and carry out. *)

val kogge_stone_adder : bits:int -> Netlist.t
(** [bits]-bit parallel-prefix (Kogge-Stone) adder: logic depth
    O(log bits) at O(bits log bits) gates — the fast/expensive
    counterpart of {!ripple_carry_adder} for area-delay studies.
    Inputs a0.., b0.., cin; outputs sum bits then carry out. *)

val array_multiplier : bits:int -> Netlist.t
(** [bits] x [bits] unsigned array multiplier (AND partial products +
    ripple reduction rows); outputs the 2*[bits] product bits.  A
    deep, wide stage for pipeline experiments. *)

val alu_slice : ?name:string -> bits:int -> unit -> Netlist.t
(** [bits]-bit ALU: ripple add plus AND/OR/XOR, op-selected through a
    mux tree (2 op-code inputs). *)

val decoder : ?input_buffer_depth:int -> select:int -> unit -> Netlist.t
(** [select]-to-2^[select] line decoder built from inverter/and trees.
    [input_buffer_depth] (default 0, must be even to preserve polarity)
    prepends a buffer chain to every select input — the address
    buffering a real decoder stage carries, and the knob that brings
    its logic depth up to its pipeline neighbours'. *)

val alu_decoder_stages : bits:int -> Netlist.t array
(** The paper's Fig. 6 three-stage pipeline: ALU part I, decoder,
    ALU part II.  The decoder's select inputs are buffered so all three
    stages have comparable logic depth (the paper's stages are all
    depth 4); without that no common balanced stage delay exists. *)

val random_logic :
  name:string -> inputs:int -> gates:int -> depth:int -> seed:int -> Netlist.t
(** Structured pseudo-random DAG: exactly [gates] gates arranged in
    [depth] levels (every gate keeps one fanin in the previous level,
    so the level structure — and hence the logic depth — is exact).
    Deterministic in [seed]. Requires [gates >= depth >= 1],
    [inputs >= 2]. *)

type iscas_profile = {
  bench_name : string;
  n_inputs : int;
  n_gates : int;
  logic_depth : int;
}

val iscas_profiles : iscas_profile list
(** Published characteristics of the four benchmarks used in
    Tables II/III. *)

val c432 : unit -> Netlist.t
val c1908 : unit -> Netlist.t
(** The paper's tables print "c1980"; the actual ISCAS85 benchmark is
    c1908 and we follow the latter. *)

val c2670 : unit -> Netlist.t
val c3540 : unit -> Netlist.t

val iscas_pipeline : unit -> Netlist.t array
(** The Table II/III 4-stage pipeline: c3540, c2670, c1908, c432 —
    with {e depth-equalised} variants (published gate counts, logic
    depths compressed to 38/32/33/30).  A real 4-stage pipeline is
    retimed so all stages can target one clock period; the raw
    benchmarks' depth spread (17..47) leaves no common feasible delay
    target, which would make the paper's experiment vacuous.  c3540
    keeps the largest depth so it remains the yield-limiting stage, as
    in the paper. *)
