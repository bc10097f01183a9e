(** Planarity testing with embedding extraction.

    The left-right planarity test: de Fraysseix and Rosenstiehl's
    characterisation of planar graphs by left-right constraints on the back
    edges of a DFS (Trémaux) tree (H. de Fraysseix, P. Rosenstiehl, "A
    characterization of planar graphs by Trémaux orders", Combinatorica
    5(2), 1985), in U. Brandes' linear-time formulation ("The Left-Right
    Planarity Test", 2009).  Three DFS passes, one tree per connected
    component: orientation (heights, lowpoints, nesting depths), the
    conflict-pair test, and the embedding read off the sides the test
    assigned.  Linear apart from sorting each node's outgoing edges by
    nesting depth, done here by comparison: O(n + m log Delta).  On
    success it returns the rotation system that the honest prover of
    Theorem 1.5 hands to the embedded-planarity protocol. *)

val is_planar : Graph.t -> bool

val embed : Graph.t -> Rotation.t option
(** [Some rot] with [Rotation.is_planar_embedding rot] iff the graph is
    planar. *)
