(** Interactive spanning-tree verification (paper Lemma 2.5).

    The paper uses, as a black box, the 3-round constant-proof-size protocol
    of Naor–Parter–Yogev (SODA 2020, §7.1): given a subgraph T (here: parent
    pointers decoded from a Lemma 2.3 forest encoding), decide whether T is
    a spanning tree of the connected communication graph G.  Perfect
    completeness, constant soundness error, amplified by parallel
    repetition.

    The NPY protocol's internals are not reproduced in the paper; this is a
    reconstruction with the same interface and bounds (DESIGN.md #3):

    - Round 1 (prover): the forest encoding itself (recorded by the caller).
    - Round 2 (verifier): per repetition, every node draws [x_v] in F_q and
      every *claimed root* draws a tag of [tag_bits] bits.
    - Round 3 (prover): per repetition, every node gets [s_v] (claimed sum
      of x over its T-subtree, mod q) and [tau_v] (its component root's tag).

    Local checks: (a) s_v = x_v + sum of children's s (a parent-pointer
    cycle forces "sum of x over the cycle component = 0 mod q", caught with
    probability 1 - 1/q); (b) tau equals the parent's tau, roots check their
    own tag; (c) tau_u = tau_v across *every* G-edge (G is connected, so two
    tree components leave a crossing edge whose sides hold independently
    drawn root tags, caught with probability 1 - 2^-tag_bits); (d) the node
    marked root is unique in its component by (b)+(c).

    Per repetition the prover sends q-width + tag_bits bits; [reps]
    repetitions drive the soundness error below (max(1/q, 2^-tag_bits))^reps
    for claims that are wrong in the same way each time; the protocol is
    run with reps = Theta(log log n) by the callers. *)

type coins = { xs : int array array; tags : Bits.t option array array; tag_bits : int }
(** [xs.(rep).(v)]; [tags.(rep).(v)] is Some for claimed roots;
    [tag_bits] is the public tag width. *)

type label = { sums : int array; taus : Bits.t array }
(** One node's round-3 label: per repetition a sum and a tau. *)

type response = label array
(** Every node's label, indexed by node. *)

val q : int
(** Field size for the sum check (16 => 4 bits). *)

val q_bits : int

val draw_coins : reps:int -> tag_bits:int -> parent:int array -> Rng.t -> coins
(** What the verifier sends in round 2 (public). *)

val honest_response : reps:int -> parent:int array -> coins -> response
(** The honest prover's round-3 labels, computed from the true tree. *)

val coins_to_bits : coins -> Bits.t array
val response_to_bits : response -> Bits.t array
(** Serializations for metering and for the network adapter. *)

val label_of_bits : coins -> Bits.t -> label option
(** The inverse of {!response_to_bits} on one node's label, with the
    repetition count and tag width taken from the public [coins]; [None]
    when the bits do not parse. *)

val verify_node :
  parent:int array ->
  children:int list array ->
  graph:Graph.t ->
  coins:coins ->
  own:label ->
  heard:(int -> label option) ->
  int ->
  bool
(** The local decision at one node [v], the one check both the
    synchronous runs and the network adapter make.  It reads [v]'s own
    coins and label, its (locally decoded) parent and children pointers,
    and the labels [heard] returns for its parent, children and
    G-neighbors, where [None] means "not heard".  A parent outside N(v)
    rejects; the subtree-sum check (a) runs only when every child was
    heard; an unheard parent or neighbor is skipped. *)

val run :
  ?seed:int ->
  ?reps:int ->
  ?tag_bits:int ->
  Graph.t ->
  parent:int array ->
  Dip.verdict * Dip.stats
(** Standalone execution (rounds 2-3 plus the given structure), used by the
    unit tests and benchmarks for this sub-protocol. *)
