(** Lint diagnostics: a finding pins a rule violation to a source position.

    Findings render as [file:line:col: [rule] message] so editors and CI
    logs can jump straight to the offending expression. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler messages *)
  rule : string;  (** rule id, e.g. ["flow-locality"] *)
  msg : string;
}

val finding : loc:Location.t -> rule:string -> string -> finding
(** Builds a finding from a compiler-libs location (its start position). *)

val compare : finding -> finding -> int
(** Orders by file, then line, then column, then rule. *)

val pp : Format.formatter -> finding -> unit

val pp_report : Format.formatter -> finding list -> unit
(** Sorted findings, one per line, followed by a one-line summary. *)

val pp_json : Format.formatter -> finding list -> unit
(** Sorted, deduplicated findings as a JSON array of
    [{"file", "line", "col", "rule", "msg"}] objects — the [--format
    json] output CI parses for PR annotations. *)

val pp_sarif : Format.formatter -> finding list -> unit
(** The same findings as a minimal SARIF 2.1.0 log ([--format sarif]),
    one run with driver name [dipp-lint]; columns are 1-based as the
    standard requires. *)
