(** The LR-sorting distributed interactive proof (paper §4, Lemma 4.1).

    Instance: a directed graph whose underlying undirected graph contains a
    given Hamiltonian path P (directed left to right); yes-instances have
    every non-path arc (u, v) with u before v on P; no-instances have at
    least one backward arc (equivalently: the digraph has a cycle).

    The protocol runs in 5 interaction rounds with O(log log n) proof size
    and soundness error 1/polylog n:

    - the path is cut into blocks of ~ceil(log n) consecutive nodes, block
      positions are spread bit-per-node inside each block, and adjacent
      blocks prove consecutiveness of their positions by comparing multiset
      characteristic polynomials at a shared random point (round 2 sample,
      round 3 evaluation);
    - inner-block arcs compare node indexes and a per-block random tag;
    - outer-block arcs commit to a distinguishing index and the polynomial
      evaluation of the shared position prefix (rounds 1-3), then every
      block checks all commitments against its own bits with two
      multiset-equality executions (rounds 4-5).

    Labels are assigned to nodes and arcs (Lemma 4.1); the planar wrapper of
    Lemma 4.2 is realized where this protocol is consumed
    ({!Path_outerplanarity}) through {!Dipp_dip.Edge_labels}. *)

type instance = {
  n : int;
  path : int array;  (** position -> node id; a permutation of 0..n-1 *)
  arcs : (int * int) list;  (** non-path arcs; (u, v) claims u before v *)
}

val validate_instance : instance -> unit
(** Raises [Invalid_argument] on malformed instances (not a permutation,
    arcs out of range, arcs duplicating path edges). *)

val is_yes_instance : instance -> bool

val underlying_graph : instance -> Graph.t

(** Protocol parameters, fixed by n and the soundness constant c. *)
module Params : sig
  type t = {
    n : int;
    block : int;  (** B = max(1, ceil(log2 n)) *)
    nblocks : int;
    p : Fp.t;  (** consecutiveness/commitment field, ~B^c *)
    p2 : Fp.t;  (** verification-scheme multiset field, > 2B^2 * p *)
  }

  val make : ?c:int -> ?block:int -> int -> t
  (** [c] is the soundness exponent (fields sized ~block^c); [block]
      overrides the block size for ablations — it must be at least
      ceil(log2 n) so a block can hold all position bits. *)
end

type prover =
  | Honest
  | Forge_pairs  (** labels backward arcs with a forged commitment pair *)
  | Shift_positions  (** renumbers blocks to legalize one backward arc *)
  | Fake_inner  (** labels backward cross-block arcs as inner-block *)

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  params : Params.t;
  transcript : (Dip.phase * Bits.t array) list;  (** non-empty iff [retain] *)
}

val run :
  ?seed:int ->
  ?c:int ->
  ?block:int ->
  ?retain:bool ->
  ?codec:Bits_flat.codec ->
  prover:prover ->
  instance ->
  result
(** Executes the 5-round protocol.  [Honest] on a yes-instance always
    accepts (perfect completeness); on a no-instance every prover strategy
    is rejected with probability 1 - 1/polylog n.  [codec] selects the
    label cursor's backend ({!Bits_flat.Flat} by default); [Checked] is
    the reference, and both write the same bytes. *)

val replay :
  ?c:int ->
  ?block:int ->
  ?codec:Bits_flat.codec ->
  instance ->
  (Dip.phase * Bits.t array) list ->
  (Dip.verdict, string) Stdlib.result
(** Decision-only replay: decodes the five recorded frames (node labels,
    arc labels, coins) with strict inverses of the label serializers and
    re-runs {e only} the per-node decision function — no prover work, no
    coin sampling.  On a transcript recorded by [run ~retain:true] with the
    same [c]/[block], the verdict equals the live run's verdict bit for
    bit.  [Error] reports a structurally malformed transcript (wrong frame
    arity or schedule, a label that does not parse).  [codec] selects the
    decoding cursor's backend ({!Bits_flat.Flat} by default); [Checked]
    is the reference, and both return the same result on any frames. *)
