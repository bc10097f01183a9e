(** The dipp-lint command line.

    [bin/dipp_lint.ml] is a one-line wrapper over {!run}; keeping the
    argument parsing, renderer dispatch and exit-code contract here
    makes them testable in-process. *)

val run : ?out:Format.formatter -> ?err:Format.formatter -> string array -> int
(** [run argv] executes the linter ([argv.(0)] is the program name, as
    in [Sys.argv]) and returns the process exit code:

    - [0] — no findings (also [--list-rules], [--refine-safe],
      [--race-safe] and [--help]);
    - [1] — at least one finding survived filtering;
    - [2] — usage or I/O error (unknown option or rule id, missing
      path), reported on [err].

    Options: [--rules r1,r2] (filter), [--list-rules],
    [--refine-safe] (print the subscripts/slices the {!Refine} pass
    proved in bounds, one [file:line:col: [refine-safe] desc] line each,
    instead of findings), [--race-safe] (print the shared-state sites
    the {!Race} pass proved safe, one [file:line:col: [race-safe] proof]
    line each, instead of findings), [--format text|json|sarif]
    ({!Report.pp_report}, {!Report.pp_json}, {!Report.pp_sarif}).  Paths
    may be [.ml] files or directories (recursive); the default is
    [./lib].  Every path is loaded into one {!Typed_scan.program}, read
    and parsed once, which the lint run or the listing reads. *)
