(** Shared AST plumbing for the lint rules: the [.ml] tree walk, ident
    and pattern helpers, and the marker-comment scans.  Reading and
    parsing files is {!Typed_scan}'s job. *)

val ml_files : string list -> string list
(** Every [.ml] under the roots (a root may itself be an [.ml] file), in
    sorted path order, skipping dotfiles and [_build]. *)

val ident_path : Longident.t -> string
(** Dotted rendering, e.g. ["Graph.fold_edges"].  [Lapply] renders with
    parentheses and never matches any rule pattern. *)

val last_two : Longident.t -> (string * string) option
(** The last two components of a dotted path: [Some ("Graph", "edges")]
    for [Dipp_graph.Graph.edges]; [None] for unqualified idents. *)

val pattern_vars : Parsetree.pattern -> string list
(** Every value name the pattern binds ([Ppat_var] and [Ppat_alias]). *)

(** {2 Marker comments}

    The three analyzers read trusted comments of the shape
    [(* <marker> <text> *)]: [dipp-lint:] suppressions here,
    [dipp-race:] and [dipp-refine:] annotations in {!Race} and {!Refine}.
    Each keeps its own grammar; the scan is shared.  Every kind covers
    its own line and the line below. *)

val find_sub : string -> string -> int option
(** Index of the first occurrence of the second string in the first. *)

val is_ident_char : char -> bool
(** A character of an OCaml identifier ([a-z], [A-Z], digits, [_], [']). *)

val marker_comments : marker:string -> string -> (int * string) list
(** Every source line holding [marker], as [(line, text)]: the 1-based
    line and the text after the first [marker] on it, cut where the
    comment closes (so code after the comment is never read as part of
    it).  In line order. *)

val annotation_at : (int, 'a) Hashtbl.t -> line:int -> (int * 'a) option
(** The [dipp-race:]/[dipp-refine:] entry covering [line]: the one written
    on [line] itself, else the one on the line above, with the line it was
    written on. *)

(** {2 Suppressions}

    A comment [(* dipp-lint: allow <rule> [<rule> ...] *)] on the same
    line as a finding, or on the line directly above it, silences the
    named rules there; [allow all] silences every rule. *)

type suppressions

val suppressions_of_source : string -> suppressions

val suppressed : suppressions -> line:int -> rule:string -> bool

val suppression_entries : suppressions -> (int * string list) list
(** Every [allow] comment as [(line, tokens)], in line order — for
    validating that each token names a rule the linter knows. *)
