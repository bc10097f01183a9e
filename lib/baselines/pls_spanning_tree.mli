(** Classical one-round proof labeling scheme for spanning-tree
    verification (Korman–Kutten–Peleg): every node is labelled with its
    exact distance to the root — Theta(log n) bits — and checks that its
    tree parent is one closer and the root is at distance 0.  The
    deterministic O(log n) counterpart of the interactive O(1)-bit
    Lemma 2.5 protocol.

    Each node decides in {!verify_node}; the synchronous {!run} and the
    network adapter [Net_protocols.pls_spanning_tree] both call it. *)

type result = { verdict : Dip.verdict; stats : Dip.stats }

val depths : Graph.t -> parent:int array -> int array
(** The honest labels: each node's distance to its root along [parent].
    Total on cheating parent arrays: a pointer cycle gets placeholder
    depths, and depths cannot fall all the way round a cycle, so one of
    its nodes rejects. *)

val depths_to_bits : Graph.t -> int array -> Bits.t array
(** Each depth at the fixed width [ceil(log2 (max 2 n))]. *)

val depth_of_bits : Graph.t -> Bits.t -> int option
(** The inverse of {!depths_to_bits} on one label; [None] when the bits
    do not parse.  [depth_of_bits g] computes the width once. *)

val verify_node :
  Graph.t -> parent:int array -> depth:int -> heard:(int -> int option) -> int -> bool
(** The local decision at [v] from its own [depth] and the depth [heard]
    returns for its parent ([None] = not heard, and the comparison is
    skipped): a root must be at depth 0; any other node needs its parent
    in N(v) and a depth one below its own. *)

val run : Graph.t -> parent:int array -> result
