(** Outerplanar and path-outerplanar graphs: recognition and witnesses.

    A graph is outerplanar iff adding a universal vertex keeps it planar.
    Biconnected outerplanar graphs have a unique Hamiltonian cycle; a graph
    is path-outerplanar (paper §2) iff it has a Hamiltonian path with all
    non-path edges properly nested above it.  These functions provide the
    honest prover's witnesses (Theorems 1.2, 1.3). *)

val is_outerplanar : Graph.t -> bool

val hamiltonian_cycle : Graph.t -> int list option
(** For a biconnected outerplanar graph with >= 3 nodes: its unique
    Hamiltonian cycle (degree-2 ear peeling).  [None] if the graph is not
    biconnected outerplanar. *)

val check_path_witness : Graph.t -> int list -> bool
(** [check_path_witness g p]: is [p] a Hamiltonian path of [g] whose
    non-path edges are properly nested (no [u < u' < v < v'] crossing)?
    Exact, O(m log m) stack test. *)

val path_witness : Graph.t -> int list option
(** A nesting Hamiltonian path if the graph is path-outerplanar and of
    recognizable shape: biconnected graphs (cycle minus an edge) and
    block-chains (blocks traversed in order, middle blocks entered/exited at
    cycle-adjacent cut vertices).  The result always passes
    {!check_path_witness}; [None] means no witness was found. *)

val triangulate : Graph.t -> Graph.t option
(** Maximal-outerplanar completion of a biconnected outerplanar graph: fan
    chords are added inside every interior face until every inner face is a
    triangle (m = 2n - 3).  [None] if the input is not biconnected
    outerplanar with at least 3 nodes. *)
