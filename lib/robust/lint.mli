(** Structural netlist linting.

    Two passes with complementary reach:

    - {!check_source} inspects the raw `.bench` statement stream, where
      combinational loops, multiply-driven signals and undefined
      references are still representable (a valid {!Spv_circuit.Netlist.t}
      rules them out by construction);
    - {!check_netlist} inspects a built netlist for defects that
      survive construction: unreachable gates, unused inputs,
      degenerate drive sizes, gate-less circuits.

    Both return typed {!Errors.diagnostic}s instead of letting
    [Topo]/[Sta]/[Ssta] fail (or silently mis-analyse) deep inside.

    Error-severity codes: [empty-circuit], [no-outputs],
    [multiple-driver], [zero-fanin], [undefined-signal],
    [combinational-loop], [bad-size].
    Warning-severity codes: [dangling-signal], [unused-input],
    [duplicate-output], [unreachable-gate]. *)

val check_source :
  (int * Spv_circuit.Bench_format.statement) list -> Errors.diagnostic list
(** Lint parsed statements (line number, statement); diagnostics are
    sorted by source line. *)

val check_bench_text :
  ?path:string -> string -> (Errors.diagnostic list, Errors.t) result
(** Tokenise and lint `.bench` text.  [Error] only when the text is so
    malformed it cannot be tokenised ({!Errors.Parse_error}). *)

val check_netlist : Spv_circuit.Netlist.t -> Errors.diagnostic list
(** Lint a built netlist. An empty list means structurally clean. *)

val errors : Errors.diagnostic list -> Errors.diagnostic list
val warnings : Errors.diagnostic list -> Errors.diagnostic list
val has_errors : Errors.diagnostic list -> bool
