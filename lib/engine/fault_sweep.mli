(** Fault-injection sweeps: protocol families executed on the {!Dipp_net}
    runtime across a grid of fault models, rates and degradation modes.

    Determinism contract (same as {!Engine}): every trial draws from a
    stream keyed by [(seed, point id, trial index)] via
    {!Dipp_util.Rng.split_string} and {!Dipp_util.Rng.split}, results are
    folded in trial-index order, and reports carry no timing — so
    [faults_report.json] is byte-identical for any [--jobs] value. *)

type family = {
  fam_id : string;  (** stable identifier; part of every point's RNG key *)
  build : Rng.t -> Dipp_net.Net.protocol;
      (** draws an honest instance and wraps it as a network protocol *)
}

val pls_family : n:int -> family
(** Semantic adapter over the distance-labeling PLS baseline. *)

val st_family : n:int -> reps:int -> family
(** Semantic adapter over Lemma 2.5 spanning-tree verification. *)

val mseq_family : n:int -> family
(** Semantic adapter over Lemma 2.6 multiset equality: per-node multisets
    are drawn at random and redistributed so the unions match (a yes
    instance). *)

val lr_family : n:int -> family
(** Checksummed-transport wrapper over an honest LR-sorting run
    ({!Dipp_trace.Family.lr}, experiments E1/E2). *)

val po_family : n:int -> family
(** Checksummed-transport wrapper over an honest path-outerplanarity run
    ({!Dipp_trace.Family.path_outerplanarity}, experiment E3). *)

val planarity_family : n:int -> family
(** Checksummed-transport wrapper over an honest planarity run
    ({!Dipp_trace.Family.planarity}, experiment E6). *)

val default_families : unit -> family list
(** The six families above, at the sizes the committed golden report
    pins. *)

type mode = Strict | Degrade

val mode_name : mode -> string

val quorum : float
(** Quorum fraction used by the [Degrade] mode (0.8). *)

val default_rates : float list

val model_ctors : (string * (float -> Dipp_net.Fault.model)) list

val default_trials : unit -> int
(** [DIPP_FAULTS_TRIALS] when set to a positive integer, else 24. *)

(** One cell of the sweep grid: counters are summed over the point's
    trials, [heard] is the mean heard-fraction. *)
type point = {
  fam : string;
  fault : string;
  rate : float;
  mode : string;
  trials : int;
  accepted : int;
  sent : int;
  delivered : int;
  dropped : int;
  corrupted : int;
  duplicated : int;
  late : int;
  retransmits : int;
  crashed : int;
  heard : float;
}

val acceptance_rate : point -> float

val run_point :
  ?jobs:int -> seed:int -> family -> Dipp_net.Fault.model -> float -> mode -> int -> point
(** [run_point ?jobs ~seed fam model rate mode trials] runs the point's
    trials through {!Dipp_net.Net.execute} on the {!Pool}. *)

type sweep = {
  families : family list;
  rates : float list;
  models : (string * (float -> Dipp_net.Fault.model)) list;
  modes : mode list;
  trials : int;
}

val default_sweep : unit -> sweep

val run_sweep : ?jobs:int -> seed:int -> sweep -> point list
(** Runs the full grid; the output order (families, then models, then
    rates, then modes) is fixed and independent of [jobs]. *)

val report_string : seed:int -> point list -> string
(** Deterministic JSON, with Wilson 95% intervals on the acceptance rate. *)

val write_report : path:string -> seed:int -> point list -> unit
(** Writes {!report_string} to [path]. *)

val print_table : point list -> unit
