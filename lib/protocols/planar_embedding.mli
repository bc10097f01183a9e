(** Embedded planarity DIP (paper §7, Theorem 1.4 / Lemma 7.1).

    Instance: a graph plus a distributed rotation system (each node holds a
    clockwise order of its incident edges).  Task: decide whether the
    rotation system is a combinatorial planar embedding.

    The protocol reduces to path-outerplanarity via the FFM+21 construction
    h(G, T, rho): a spanning tree T is committed (Lemma 2.3) and certified
    (Lemma 2.5); every node v is split into chi(v)+1 copies laid out along
    the Euler tour of T ordered by the rotations, and every non-tree edge
    becomes an edge between the copies selected by the
    first-tree-edge-counterclockwise rule.  Lemma 7.3: rho is a planar
    embedding iff the resulting Q edges nest properly above the Euler
    path — which {!Path_outerplanarity} certifies.

    Each original node holds the labels of O(1) copies (its own first/last
    copies plus one copy per parent direction), so the proof size is a
    constant factor over the path-outerplanarity proof. *)

type instance = { graph : Graph.t; rot : Rotation.t }

type reduction = {
  h : Graph.t;  (** copies relabelled by Euler-tour position *)
  copy_owner : int array;  (** h node -> original node *)
  copies_of : int list array;  (** original node -> its h nodes (tour order) *)
}

val reduce : instance -> root:int -> parent:int array -> reduction
(** The h(G, T, rho) construction; [parent] is the rooted spanning tree
    (parent.(root) = -1).  The Euler path is the identity order on h. *)

val is_yes_instance : instance -> bool
(** Ground truth via face tracing + Euler's formula. *)

type prover = Honest | Crossing_sweep | Flip_orientation

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  inner : Path_outerplanarity.result;
  transcript : (Dip.phase * Bits.t array) list;
      (** the top-level meter's retained frames; non-empty iff [retain] —
          component sub-runs meter separately and are not retained *)
}

val run :
  ?seed:int ->
  ?c:int ->
  ?retain:bool ->
  ?codec:Bits_flat.codec ->
  prover:prover ->
  instance ->
  result
(** Requires a connected graph with at least one node.  [codec] selects
    the label cursor's backend ({!Bits_flat.Flat} by default); [Checked]
    is the reference, and both write the same bytes.  This protocol's own
    labels are finished bitstrings, so it only threads [codec] through
    the inner {!Path_outerplanarity} run. *)
