(** dipp-race: static domain-safety and determinism analysis.

    The engine promises byte-identical reports for any [DIPP_JOBS]; this
    pass turns the concurrency discipline behind that promise into
    lint-time obligations over the parsetree:

    - [race-shared-mut] — every mutable location domains can share (a
      module-level binding, or a local captured by a closure submitted
      to [Pool.run]/[Pool.map]/[Domain.spawn]) is [Atomic], accessed
      under one consistent [Mutex] (inferred locksets), or provably
      domain-local;
    - [race-lock-discipline] — exactly one guarding mutex per shared
      location, a global acquisition order (no cycles), no re-entry, no
      lock held across a pool submission;
    - [race-determinism] — shared accumulators updated from pooled
      tasks only through commutative/associative merges (the
      [Dip.merge_*] algebra); order-dependent effects (list cons,
      [Buffer.add_*], blind overwrites, printing to a shared channel)
      are findings even under a lock;
    - [race-rng] — an [Rng] stream captured by a pooled task is only
      used as the parent of [Rng.split]/[Rng.split_string] keyed by the
      task's own identity.

    Trusted annotations, written on the binding's line or the line
    above, are the axioms of the pass:

    {[
      let lock = Mutex.create ()

      (* dipp-race: guarded-by lock *)
      let table : (string, outcome) Hashtbl.t = Hashtbl.create 64

      (* dipp-race: domain-local *)
      let warned = ref false

      (* dipp-race: merge-only *)
      let totals = ref 0
    ]}

    They are validated like [dipp-refine]'s: malformed bodies,
    [guarded-by] claims naming no mutex in scope, and annotations that
    attach to no mutable binding all produce findings, and every
    trusted site appears in the [--race-safe] listing so reviewers see
    exactly which proofs were assumed rather than inferred. *)

val rule_shared : string
(** ["race-shared-mut"] *)

val rule_lock : string
(** ["race-lock-discipline"] *)

val rule_determinism : string
(** ["race-determinism"] *)

val rule_rng : string
(** ["race-rng"] *)

(** {1 Annotations} *)

type annot =
  | Guarded_by of string  (** every access holds this mutex *)
  | Domain_local  (** never reachable from more than one domain *)
  | Merge_only  (** only commutative/associative updates *)

type annots = {
  tbl : (int, annot) Hashtbl.t;  (** line -> trusted proof *)
  bad : (int * string) list;  (** malformed annotation lines *)
  used : (int, unit) Hashtbl.t;  (** consumed by some binding *)
}

val annotations_of_source : string -> annots
(** Scans raw source text.  A comment engages the scanner only when the
    text after the marker starts with a proof keyword ([guarded-by],
    [domain-local], [merge-only]); prose merely mentioning the marker is
    ignored, a keyword with the wrong arity is malformed. *)

val annotation_findings : filename:string -> annots -> Report.finding list
(** Malformed-annotation findings, under [race-shared-mut]. *)

(** {1 Results} *)

type safe = {
  rfile : string;
  rline : int;  (** 1-based *)
  rcol : int;  (** 0-based *)
  rdesc : string;  (** the proof, e.g. ["guarded-by `lock`"] *)
}
(** A shared-state site the pass proved (or was trusted to be) safe —
    the [--race-safe] listing. *)

type result = { findings : Report.finding list; safe : safe list }

val analyze :
  program:Typed_scan.program ->
  annots:annots ->
  filename:string ->
  Parsetree.structure ->
  result
(** Runs the pass over the module loaded under [filename] ([structure] is
    its parse).  [program] resolves qualified calls out of pooled tasks
    for the cross-module shared-channel-output scan; [annots] is
    {!annotations_of_source} of the module's text.  Fail-open: an internal
    error yields an empty result rather than a crash. *)
