(** The [budget] rule: static round/phase-schedule verification.

    For every module with a top-level [run] function the pass extracts,
    along each execution path, the sequence of [Dip.record_prover] /
    [Dip.record_verifier] calls, splicing let-bound and top-level helper
    bodies at call sites.  A sub-protocol call [M.run] is expanded
    through the whole-program index to [M]'s own extracted schedule and
    merged in parallel (longest schedule wins; every component must be a
    prefix of it — [Dip.merge_parallel] semantics).  Branches produce
    alternative paths; a sub-run inside a lambda or loop is modeled as
    zero-or-once (parallel merging makes repetition idempotent).

    Findings, all under rule ["budget"]:
    - a phase recorded inside a closure or loop (schedule not statically
      fixed);
    - an extracted schedule that deviates from (is not a prefix of) the
      declared one;
    - statically inconsistent parallel schedules on one path;
    - no path realizing the declared schedule exactly (skipped when an
      unresolvable sub-protocol makes the extraction incomplete);
    - with [require_declared], a recording [run] with no registry row. *)

val rule_budget : string
(** ["budget"] *)

type ph = P | V

type declared = {
  id : string;  (** registry row id, for messages *)
  rounds : int;
  schedule : ph list;
}

val render : ph list -> string
(** ["P-V-P-V-P"]; ["(no phases)"] when empty. *)

val check_structure :
  program:Typed_scan.program ->
  ?declared:declared ->
  require_declared:bool ->
  filename:string ->
  Parsetree.structure ->
  Report.finding list
(** Checks the module loaded under [filename] ([structure] is its parse).
    [program] resolves sub-protocol and cross-module helper calls, and the
    module's own helpers from its own file; an unresolved sub makes the
    exactness check lenient rather than noisy.  [declared] is the registry
    row for this module, if any; [require_declared] demands one whenever
    [run] records phases (set for [lib/protocols] and [lib/baselines]). *)
