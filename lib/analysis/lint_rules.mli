(** The dipp-lint rule set and entry points.

    Rules (see ANALYSIS.md for the model-level rationale):
    - [flow-locality], [locality-traversal] — the DIP locality audit
      ({!Flow}): no GraphGlobal-tainted value may reach a container
      subscript inside a decision function, even when laundered through
      local slots, helper functions or closures, and no decision function
      may enumerate the whole graph;
    - [budget] — static round/bit-budget verification ({!Budget}): a
      protocol's extracted [record_prover]/[record_verifier] schedule,
      with sub-protocol runs expanded, must realize exactly the rounds
      and phase order declared in the bounds registry
      ([lib/protocols/bounds.ml]);
    - [refine-budget], [refine-index], [refine-annotation] — the numeric
      refinement pass ({!Refine}): an interval/affine abstract
      interpretation proves every [Dip.record_prover] label width is
      within the declared proof-size envelope shape of the module's
      bounds-registry row, re-proves subscripts in decision functions,
      gates [Bits.unsafe_sub] on a static in-range proof, and rejects
      malformed [(* dipp-refine: ... *)] annotations;
    - [rng] — randomness only through [Rng] ([lib/util/rng.ml]); direct
      [Random.*] calls break seeded reproducibility of soundness-error
      estimates;
    - [obj-magic] — no [Obj.magic] (or any [Obj.*] cast);
    - [poly-compare] — no bare polymorphic [compare], and no structural
      [=]/[<>] on a dereferenced ref or on [Graph.*]/[Bits.*] values that
      carry structure (use [Graph.equal], [Bits.equal] or a match);
    - [partial] — no unguarded partial stdlib calls ([List.tl],
      [List.combine], [Option.get]); destructure with a pattern match
      instead;
    - [missing-mli] — every library module ships an interface;
    - [parse-error] — the file does not parse (reported as a finding so
      a broken tree fails the lint gate rather than crashing it);
    - [suppression] — every token of an [allow] comment must name a
      known rule (or [all]); a typo'd id would silently suppress
      nothing, so it is reported (and cannot itself be suppressed).

    Suppression: [(* dipp-lint: allow <rule> [<rule> ...] *)] on the
    finding's line or the line above ([allow all] covers every rule). *)

type rule = { id : string; summary : string }

val rules : rule list
(** Every rule this linter knows, for [--list-rules] and the docs. *)

val lint_source : filename:string -> string -> Report.finding list
(** Lints one implementation given as a string, as a one-source
    {!Typed_scan.program}; suppressions are applied.  The [missing-mli]
    check needs a filesystem context and is not run here; qualified calls
    into other modules stay unresolved. *)

val lint_paths : string list -> Report.finding list
(** Lints every [.ml] under the roots ({!Ast_scan.ml_files}: files or
    directories, recursively) as one program, so qualified calls resolve
    across all the roots' modules.  A file with no sibling [.mli] is
    reported at line 1 under [missing-mli] (suppressible by an [allow]
    comment on the first line). *)
