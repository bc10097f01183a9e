(** Two-round multiset equality over a rooted spanning tree
    (paper Lemma 2.6, after Naor–Parter–Yogev).

    Each node holds multisets S1(v), S2(v) of elements from a universe of
    size [k^c]; the task is to decide whether the unions are equal as
    multisets.  The root samples a point z of F_p (p the smallest prime
    above k^{c+1}); the prover assigns every node z plus the evaluations of
    the characteristic polynomials of the two multisets restricted to its
    subtree; aggregation is checked locally up the tree, each node checks
    its copy of z against its parent's, and the root compares the two full
    evaluations.  Perfect completeness; soundness error <= k/p; proof size
    O(log k).

    Each node decides in {!verify_node} from its own label and its tree
    neighbors' labels alone; the synchronous {!run} and the network
    adapter [Net_protocols.multiset_eq] both call it. *)

type instance = {
  tree : Graph.t;  (** locality graph: at least the tree edges *)
  parent : int array;  (** rooted tree, exactly one -1 *)
  s1 : int list array;
  s2 : int list array;
  k : int;  (** bound on the multiset sizes *)
  universe : int;  (** elements are in [0, universe) *)
}

val field : instance -> Fp.t
(** Smallest prime above [max (k * universe_slack) universe]; see paper
    footnote 10 — p < k^{c+2}, so log p = O(log k). *)

type label = { z : int; e1 : int; e2 : int }
(** One node's label: its echo of the root's point z and the two subtree
    evaluations. *)

val sample_z : instance -> Rng.t -> int
(** Root's round-1 (verifier) sample. *)

val honest_labels : instance -> z:int -> label array
(** The honest prover's assignment, indexed by node: subtree evaluations
    of both polynomials, and z echoed everywhere.  Total on a cheating
    parent array: a pointer cycle closes on a placeholder value. *)

val labels_to_bits : instance -> label array -> Bits.t array

val label_of_bits : field:Fp.t -> Bits.t -> label option
(** The inverse of {!labels_to_bits} on one node's label; [None] when the
    bits do not parse. *)

val verify_node :
  instance ->
  field:Fp.t ->
  children:int list array ->
  z_sampled:int ->
  own:label ->
  heard:(int -> label option) ->
  int ->
  bool
(** The local decision at one node [v], the one check both the
    synchronous run and the network adapter make, from [v]'s own label
    and the labels [heard] returns for its tree neighbors ([None] = not
    heard).  [field] is {!field} and [children] the children lists of
    the instance's parent array, both computed once per run.  The
    aggregation products are checked only when every child was heard;
    a non-root checks its z echo against its parent's when the parent
    was heard; the root checks its z against [z_sampled] and compares
    e1 = e2. *)

val run : ?seed:int -> instance -> Dip.verdict * Dip.stats
(** Standalone two-round execution with the honest prover. *)
