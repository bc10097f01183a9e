(** The distributed-interactive-proof execution model (paper §1, "Model").

    A protocol run alternates prover phases (the prover assigns one label —
    a bitstring — to every node) and verifier phases (every node draws a
    public random bitstring).  After the final prover phase every node
    decides from its own randomness, its own labels, and its neighbors'
    labels; the run accepts iff all nodes accept.

    This module records phases and computes the paper's complexity measures:

    - interaction rounds = number of phases (a 5-round protocol is
      P-V-P-V-P);
    - proof size = maximum number of bits in any single label assigned by
      the prover in any phase;
    - plus totals useful for the experiment tables. *)

type phase = Prover_phase | Verifier_phase

type meter

val meter : ?retain:bool -> unit -> meter
(** With [retain:true] the meter keeps every recorded label array so the
    whole transcript can be rendered afterwards (small instances only). *)

val record_prover : meter -> Bits.t array -> unit
(** One prover phase: [labels.(v)] is node v's label this phase. *)

val record_verifier : meter -> Bits.t array -> unit
(** One verifier phase: [coins.(v)] is node v's public randomness. *)

type stats = {
  interaction_rounds : int;
  proof_size_bits : int;  (** max single prover label, in bits *)
  max_node_total_bits : int;  (** max per-node sum of prover labels across phases *)
  total_prover_bits : int;
  total_verifier_bits : int;
  phases : phase list;  (** in order *)
  per_phase : (phase * int) list;
      (** per phase, the largest single label/coin assigned in it (bits) *)
}

val stats : meter -> stats

(** {2 Declared complexity budgets}

    The Gil–Parter theorem table (Theorems 1.2–1.8) declares, per protocol,
    an interaction-round count, a phase schedule, and a proof-size bound.
    A [budget] is the runtime form of one such row (the registry living in
    [lib/protocols/bounds.ml]); {!check_budget} cross-checks a measured
    {!stats} against it.  [bench/main.exe bounds] runs this over every
    protocol and emits the machine-readable claim-vs-measured record
    ([bounds_report.json]); the static analogue — extracting the schedule
    from the source — is the [budget] pass of dipp-lint. *)

type budget = {
  budget_rounds : int;  (** claimed interaction rounds (5 for the DIPs) *)
  budget_schedule : phase list;  (** claimed schedule, e.g. P-V-P-V-P *)
  budget_proof_bits : int;  (** claimed upper envelope on {!stats.proof_size_bits} *)
  budget_floor_bits : int;
      (** claimed lower bound on proof size (Theorem 1.8, one-round
          schemes); [0] disables the check *)
}

type budget_violation =
  | Rounds_exceeded of { claimed : int; measured : int }
  | Schedule_mismatch of { claimed : phase list; measured : phase list }
  | Proof_size_exceeded of { claimed : int; measured : int }
  | Proof_size_below_floor of { floor : int; measured : int }

val check_budget : budget -> stats -> budget_violation list
(** [[]] iff the measured stats respect the declared budget.  The phase
    check is prefix agreement: component folds keep only the top-level
    meter's phase list, so a measured schedule may be a strict prefix of
    the declared one. *)

val pp_budget_violation : Format.formatter -> budget_violation -> unit

val pp_phases : Format.formatter -> phase list -> unit
(** Renders a schedule as ["P-V-P-V-P"]. *)

type verdict = { accepted : bool; rejecting : int list }

val all_accept : n:int -> (int -> bool) -> verdict
(** Runs the per-node decision function and collects rejections. *)

val heard_all : 'a array -> int -> 'a option
(** The neighbor lookup of a synchronous run, where every label is heard:
    [heard_all labels] answers [Some labels.(u)] for every [u] and
    allocates nothing per call.  Build it once per run.  The network
    adapters pass a lookup that answers [None] for an unheard neighbor. *)

val pp_stats : Format.formatter -> stats -> unit

val pp_per_phase : Format.formatter -> stats -> unit
(** Renders the round schedule with per-phase maximum label sizes, e.g.
    ["P19 V30 P80 V18 P90"]. *)

val transcript : meter -> (phase * Bits.t array) list
(** The retained label/coin arrays in round order; empty unless the meter
    was created with [retain:true]. *)

val pp_transcript : ?max_nodes:int -> Format.formatter -> (phase * Bits.t array) list -> unit
(** Bit-level rendering of a transcript, one row per node, truncated to
    [max_nodes] (default 16). *)

val merge_trials : stats list -> stats
(** Stats of independent repetitions (trials) of the same protocol: the
    proof-size, node-total and per-phase columns are pointwise maxima over
    the trials (an envelope — no labels concatenate across trials), while
    the prover/verifier bit totals add, giving the cumulative work of the
    whole trial batch.  Rounds are the max; the longer schedule wins.
    Raises [Invalid_argument] on the empty list, and when two inputs
    disagree on a phase kind at the same round (a prover round merged into
    a verifier round would mis-account bits): the shorter schedule must be
    a prefix of the longer. *)

val merge_parallel : stats list -> stats
(** Stats of protocols executed in parallel (same rounds, labels
    concatenated per phase): rounds = max, label sizes and totals add.
    The proof size is the sum of component proof sizes — an upper bound on
    the true concatenated maximum that preserves every asymptotic claim.
    [per_phase] is merged round by round (summing the per-round phase
    maxima, since round-i labels concatenate); rounds beyond the shorter
    schedule are kept from the longer one.  Raises [Invalid_argument] on
    the empty list, and when two inputs disagree on a phase kind at the
    same round: the shorter schedule must be a prefix of the longer. *)

val merge_components : stats -> stats list -> stats
(** [merge_components top subs]: stats of a composite protocol whose own
    meter gave [top] and whose sub-runs on parts of the graph (blocks,
    SP components, host ears) gave [subs].  Rounds, proof size and node total are the max over [top] and
    [subs]; the prover and verifier bit totals add; [phases] and
    [per_phase] are [top]'s.  [merge_components top [] = top]. *)
