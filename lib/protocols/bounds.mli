(** The declared-bounds registry: the Gil–Parter theorem table
    (Theorems 1.2–1.8, plus the Lemma 4.1 LR-sorting primitive and the
    one-round PLS baselines) as checkable data.

    Every protocol module in [lib/protocols] (and every PLS baseline in
    [lib/baselines]) has one {!row} keyed by its module basename.  A row
    declares the exact interaction-round count and phase schedule and a
    concrete proof-size envelope [n -> max_bits] for the theorem's
    asymptotic family, calibrated at the default soundness constant
    [c = 3] (see EXPERIMENTS.md for the reference measurements each
    envelope was fitted against).

    Consumers: the static [budget] pass of dipp-lint (schedule vs.
    source), {!Dip.check_budget} (runtime stats vs. budget), and
    [bench/main.exe bounds] (the claim-vs-measured [bounds_report.json]
    record). *)

type shape =
  | Loglog of { mult : int; add : int }
      (** [mult * loglog n + add] — the paper's O(log log n) families *)
  | Loglog_delta of { mult : int; dmult : int; add : int }
      (** [mult * loglog n + dmult * ceil_log2 (max 2 delta) + add] — the
          Theorem 1.5 O(log log n + log Delta) family *)
  | Log of { mult : int; add : int }
      (** [mult * ceil_log2 n + add] — the Theta(log n) PLS baselines *)

(** A proof-size envelope as symbolic data rather than an opaque closure,
    so the static refinement pass ([refine-budget] in dipp-lint) can
    compare an inferred per-phase label-width form against the declared
    one; {!eval_shape} instantiates it numerically. *)

type row = {
  id : string;  (** protocol module basename, e.g. ["lr_sorting"] *)
  theorem : string;  (** e.g. ["Theorem 1.2"] *)
  family : string;  (** printable proof-size family, e.g. ["O(log log n)"] *)
  rounds : int;
  schedule : Dip.phase list;
  shape : shape;
      (** claimed upper envelope on proof size in bits; [delta] is the
          maximum degree and only contributes to the Theorem 1.5 row *)
  floor : (int -> int) option;
      (** Theorem 1.8 lower bound for one-round schemes, as [n -> bits] *)
}

val rows : row list
(** Every registry row, in theorem order. *)

val find : string -> row option
(** Row lookup by protocol module basename. *)

val eval_shape : shape -> n:int -> delta:int -> int
(** Instantiates an envelope shape at a concrete instance size. *)

val envelope : row -> n:int -> delta:int -> int
(** [eval_shape r.shape]. *)

val budget : row -> n:int -> delta:int -> Dip.budget
(** Instantiates a row's envelope at a concrete instance size. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] = smallest [w >= 1] with [2^w >= n]. *)

val loglog : int -> int
(** [ceil_log2 (ceil_log2 n)], the paper's proof-size scale. *)

val label_encoder : Bits_flat.codec -> string -> n:int -> delta:int -> Bits_flat.Enc.t
(** [label_encoder codec id ~n ~delta] is a label cursor for protocol
    [id], sized to its envelope at [n] and maximum degree [delta] (floored
    at 2), for reset-reuse across a phase's labels. *)
