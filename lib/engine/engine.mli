(** Deterministic multicore trial-execution engine.

    [run] executes a {!Spec.t}'s trials on the {!Pool}, each trial on a
    private splittable RNG stream derived as
    [Rng.split (Rng.split_string (Rng.create seed) spec.id) index].
    Because streams are keyed by trial index — never by worker — the
    aggregate (and the emitted report) is bit-identical for every worker
    count: [DIPP_JOBS=1] and [DIPP_JOBS=64] produce the same bytes.

    The determinism contract (ANALYSIS.md):
    - per-trial outcomes are a pure function of [(seed, spec id, index)];
    - aggregation folds in index order, independent of completion order;
    - {!report_string} contains no timing and no worker count, so the
      report is byte-comparable across machines and worker counts. *)

module Spec = Spec

type result = {
  spec : Spec.t;
  completed : int;  (** trials that produced an instance (non-[None]) *)
  rejected : int;  (** completed trials whose verdict was rejection *)
  envelope : Dip.stats option;
      (** per-trial stats folded with {!Dip.merge_trials} (max envelope +
          cumulative bit totals); [None] iff no trial completed *)
}

val rejection_rate : result -> float
(** [rejected / completed] ([0.] when nothing completed). *)

val wilson95 : rejected:int -> total:int -> float * float
(** 95% Wilson score interval for the rejection rate. *)

val run : ?jobs:int -> seed:int -> Spec.t -> result
(** Executes [spec.trials] trials.  [jobs] defaults to
    {!Pool.default_jobs}[ ()]. *)

val run_all : ?jobs:int -> seed:int -> Spec.t list -> result list
(** [run] over each spec, in order. *)

val report_string : seed:int -> result list -> string
(** The [trials_report.json] payload: a pure function of [seed] and the
    results. *)

val write_report : path:string -> seed:int -> result list -> unit
(** Writes {!report_string} to [path]. *)
