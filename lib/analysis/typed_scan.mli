(** The loader: every analyzer pass, driver and listing reads one
    {!program}, built once, in which each [.ml] file is read and parsed
    exactly once.

    A program holds, per file, its path, its text and its parse result,
    plus a whole-program index of top-level function bindings keyed
    ["Module.name"].  The flow analysis ({!Flow}), the budget and
    refinement passes resolve qualified calls against the index; the
    refinement pass also evaluates a sibling module from its parse result
    and reads that module's annotations from its text.

    Module names follow dune's convention: the capitalized basename of
    the [.ml] file, so [lib/dip/dip.ml] indexes as ["Dip.record_prover"]
    etc. regardless of the wrapping library prefix. *)

type entry = {
  params : string list;  (** every parameter name, across the [fun] chain *)
  body : Parsetree.expression;  (** the body with parameters peeled *)
  file : string;  (** path of the file the entry was indexed from *)
}

type file = {
  path : string;
  text : string;  (** the source, bytes as loaded *)
  parsed : (Parsetree.structure, exn) result;
      (** the structure, or the compiler's located parse exception (e.g.
          [Syntaxerr.Error]) — the [parse-error] rule reports it *)
}

type program

val module_name : string -> string
(** ["Lr_sorting"] for ["lib/protocols/lr_sorting.ml"]. *)

val peel_params : Parsetree.expression -> (string list * Parsetree.expression) option
(** Parameter chain of a function binding; [None] for a plain value.
    A [function] keyword body is returned unpeeled as the body. *)

val of_sources : (string * string) list -> program
(** A program from in-memory [(path, text)] pairs, in that order; the
    paths name the files (and seed the locations) but are never read.
    A one-file fixture is a one-source program. *)

val load_files : string list -> program
(** [of_sources] over the given files, each read from disk once. *)

val files : program -> file list
(** Every file, in load order. *)

val find_file : program -> string -> file option
(** The file loaded under this path. *)

val lookup : program -> modname:string -> name:string -> entry option
(** A top-level function binding by module and name; when two files share
    a module name, the later one in load order wins. *)

val lookup_in : program -> path:string -> name:string -> entry option
(** A top-level function binding of the file loaded under [path]. *)
