(** The typed error boundary for the whole library.

    Every failure mode of the public entry points — malformed input
    text, structurally invalid netlists, degenerate numerics, bad
    parameters — maps onto one constructor of {!t}, so callers (and
    the CLI, which turns each constructor into a distinct exit code)
    never have to pattern-match on exception strings. *)

type severity = Err | Warn

type diagnostic = {
  severity : severity;
  code : string;  (** stable kebab-case id, e.g. ["combinational-loop"] *)
  signal : string option;  (** offending signal/node name, when known *)
  line : int option;  (** 1-based source line, when known *)
  message : string;
}
(** One lint finding. *)

val diagnostic :
  ?severity:severity -> ?signal:string -> ?line:int -> code:string ->
  string -> diagnostic

val diagnostic_to_string : diagnostic -> string

type t =
  | Io_error of { path : string; message : string }
      (** The file could not be read at all. *)
  | Parse_error of { path : string option; line : int option; message : string }
      (** The text is not well-formed `.bench`. *)
  | Lint_error of { path : string option; diagnostics : diagnostic list }
      (** Parsed, but structurally unsound (loops, undriven wires, …). *)
  | Numeric_error of { where : string; message : string }
      (** A computation produced or would produce non-finite /
          meaningless values (NaN, non-PSD correlation, …). *)
  | Domain_error of { param : string; message : string }
      (** A caller-supplied parameter is outside its domain. *)
  | Internal_error of { where : string; message : string }
      (** An unexpected exception escaped — a bug, not bad input. *)
  | Certificate_refuted of { what : string; detail : string }
      (** A static certificate check ({!Spv_analysis.Certify})
          disproved the claim it was asked to verify — well-formed
          input whose answer is "no". *)
  | Oracle_violation of { invariant : string; detail : string }
      (** The differential fuzzing oracle ({!Oracle}) found a
          counterexample: a fuzzed (circuit, process, seed) triple on
          which an estimator invariant fails.  Like a refuted
          certificate, this is a definite answer, not a crash. *)
  | Deadline_exceeded of { where : string; budget_ms : int }
      (** A deadline-bounded request ([Spv_workload.Serve]) ran out of
          its per-request budget before completing.  The work done so
          far is discarded (no partial output); the input itself may
          be perfectly fine. *)

val to_string : t -> string
(** One line, no trailing newline — what the CLI prints on stderr. *)

val exit_code : t -> int
(** Distinct documented process exit code per constructor:
    Io 2, Parse 3, Lint 4, Numeric 5, Domain 6, Internal 7,
    Certificate_refuted 8, Oracle_violation 9, Deadline_exceeded 10. *)

val pp : Format.formatter -> t -> unit

(** Constructors. *)

val io : path:string -> string -> t
val parse : ?path:string -> ?line:int -> string -> t
val lint : ?path:string -> diagnostic list -> t
val numeric : where:string -> string -> t
val domain : param:string -> string -> t
val internal : where:string -> string -> t
val refuted : what:string -> string -> t
val violation : invariant:string -> string -> t
val deadline : where:string -> budget_ms:int -> t

val of_parse_error : ?path:string -> Spv_circuit.Bench_format.parse_error -> t
val of_sample_error : where:string -> Spv_stats.Descriptive.sample_error -> t
