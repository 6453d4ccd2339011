(** Shared diagnostic framework for the analyzer passes.

    Every pass emits {!finding}s: pass name, severity, location in the
    design, a human-readable message and a structured payload (numbers
    the CLI's JSON output preserves exactly).  A {!t} aggregates the
    findings of one analyzer run. *)

type severity = Info | Warn | Error

type location =
  | Pipeline  (** the whole pipeline / whole-model scope *)
  | Stage of int
  | Node of { stage : int; node : int }

type value = Num of float | Int of int | Text of string | Flag of bool

type finding = {
  pass : string;  (** e.g. ["bounds"], ["reconvergence"], ["criticality"] *)
  severity : severity;
  location : location;
  message : string;
  data : (string * value) list;  (** structured payload, key order kept *)
}

type t = { findings : finding list }

val finding :
  ?severity:severity -> ?location:location -> ?data:(string * value) list ->
  pass:string -> string -> finding
(** Defaults: [Info], [Pipeline], empty payload. *)

val empty : t
val of_findings : finding list -> t
val concat : t list -> t
val count : t -> severity -> int
val has_errors : t -> bool

val sorted : t -> t
(** Stable order: severity (errors first), then pass name, then
    location (pipeline, stage, node). *)

val to_text : t -> string
(** One line per finding:
    [severity pass location: message (k=v, ...)]. *)

val schema_version : int
(** Version of the JSON document layout emitted by {!to_json}; bumped
    on structural changes so consumers can pin on it. *)

val to_json : t -> string
(** Self-contained JSON document: [{"schema_version": n, "findings":
    \[...\], "counts": {...}}].  Non-finite numbers are emitted as
    JSON strings (["inf"], ["-inf"], ["nan"]) so the document always
    parses. *)
