(** ISCAS `.bench`-style netlist text format.

    Grammar (one statement per line, `#` comments):
    {v
    INPUT(a)
    OUTPUT(n5)
    n3 = NAND2(a, b)        # cell names as in Cell.of_name, upper/lower
    n4 = INV(n3) [size=2.5] # optional drive annotation
    v}

    Cells are resolved through {!Cell.of_name} (case-insensitive);
    `NAND`/`NOR`/`AND`/`OR` without an arity suffix resolve by fanin
    count.  Statements may appear in any order — the reader
    topologically sorts them — but combinational cycles are rejected. *)

val to_string : Netlist.t -> string
(** Render a netlist (stable: inputs, then gates in id order with
    non-default sizes annotated, then outputs). *)

type statement =
  | St_input of string
  | St_output of string
  | St_def of { signal : string; cell : string; args : string list; size : float }
      (** One parsed `.bench` line (comments and blanks dropped). *)

type parse_error = { line : int option; message : string }
(** [line] is 1-based; [None] for whole-file problems (I/O failures,
    missing outputs, netlist-level validation). *)

val parse_error_to_string : parse_error -> string

val statements_of_string :
  string -> ((int * statement) list, parse_error) result
(** Tokenise into (line number, statement) pairs without building the
    netlist — the raw form consumed by structural linting, which can
    describe problems (cycles, multiple drivers) a {!Netlist.t} cannot
    represent. *)

val of_string_result : ?name:string -> string -> (Netlist.t, parse_error) result
(** Parse; all syntax errors, unknown cells, undefined signals, arity
    mismatches, duplicate definitions and combinational cycles are
    reported as [Error] with a line number where one is known.  Gate
    ids follow definition order (fanins first), so text printed by
    {!to_string} parses back to bit-identical node numbering — the
    byte-stability filed fuzz repro cases rely on. *)

val of_string : ?name:string -> string -> Netlist.t
(** Parse. Raises [Failure] with a line-numbered message on syntax
    errors, unknown cells, undefined signals, arity mismatches,
    duplicate definitions or cycles. *)

val write_file : string -> Netlist.t -> unit

val read_file : string -> Netlist.t
(** [read_file path] names the netlist after the file's basename.
    Raises [Failure] on parse {e and} I/O errors. *)

val roundtrip_equal : Netlist.t -> Netlist.t -> bool
(** Structural equality (same nodes, fanins, sizes, outputs) up to node
    renumbering induced by topological order — used by tests. *)
