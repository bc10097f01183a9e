(** A whole-program index of top-level function bindings, keyed
    ["Module.name"].  The flow analysis ({!Flow}) resolves qualified
    calls against it to pull in cross-module summaries; everything else
    about a program stays on the per-file AST.

    Module names follow dune's convention: the capitalized basename of
    the [.ml] file, so [lib/dip/dip.ml] indexes as ["Dip.record_prover"]
    etc. regardless of the wrapping library prefix. *)

type entry = {
  params : string list;  (** every parameter name, across the [fun] chain *)
  body : Parsetree.expression;  (** the body with parameters peeled *)
  file : string;
      (** source path the entry was indexed from ([""] when built from an
          in-memory structure) — the refinement pass reads width
          annotations from it *)
  line : int;  (** 1-based line of the binding's pattern *)
  orig : Parsetree.expression;
      (** the unpeeled binding expression, for passes that need the
          parameter labels {!peel_params} discards *)
}

type program

val module_name : string -> string
(** ["Lr_sorting"] for ["lib/protocols/lr_sorting.ml"]. *)

val peel_params : Parsetree.expression -> (string list * Parsetree.expression) option
(** Parameter chain of a function binding; [None] for a plain value.
    A [function] keyword body is returned unpeeled as the body. *)

val of_structure : modname:string -> Parsetree.structure -> program
(** Indexes every top-level [Ppat_var] function binding of the structure,
    with [file = ""]. *)

val lookup : program -> modname:string -> name:string -> entry option

val load_files : string list -> program
(** Parses and indexes the given [.ml] files; files that fail to parse are
    skipped — the [parse-error] rule reports them separately. *)

val load_tree : string -> program
(** [load_files] over {!Ast_scan.ml_files} of a root (empty if the root
    does not exist). *)
