(** Seeded instance generators for every task in the paper.

    Yes-instances come with witnesses (the honest prover's input);
    no-instances are certified non-members by construction (explicit K4 /
    K5 / K2,3-minor forcing) and re-checked against the recognition
    algorithms in tests. *)

(** {1 LR-sorting (§4)} *)

val lr_yes : n:int -> ?arcs_factor:int -> int -> int array * (int * int) list
(** [(path, arcs)] — identity path with random forward arcs;
    [arcs_factor * n] attempts (default 2). *)

val lr_no : n:int -> ?arcs_factor:int -> int -> int array * (int * int) list
(** Same but with one random far backward arc spliced in. *)

(** {1 Path-outerplanarity (§5)} *)

val path_outerplanar : n:int -> int -> Graph.t * int list
(** Random nested chords over the identity path; witness included. *)

val path_crossing : n:int -> int -> Graph.t * int list
(** A path-outerplanar base plus a K4-minor-forcing chord triple: the graph
    is not outerplanar (hence in no family of the paper); the returned
    "witness" is the underlying Hamiltonian path a cheating prover would
    commit. *)

(** {1 Outerplanarity (§6)} *)

val outerplanar : blocks:int -> int -> Graph.t
(** Chain of biconnected outerplanar blocks glued at cut vertices. *)

val outerplanar_no : blocks:int -> int -> Graph.t
(** Same, with one block made non-outerplanar (K4-minor triple). *)

val biconnected_outerplanar : n:int -> int -> Graph.t
(** A single biconnected outerplanar block (cycle + nested chords). *)

val maximal_outerplanar : n:int -> int -> Graph.t
(** A maximal outerplanar graph (every interior face a triangle,
    m = 2n - 3), via {!Dipp_graph.Outerplanar.triangulate}. *)

(** {1 Planar graphs and embeddings (§7)} *)

val planar : n:int -> int -> Graph.t
(** Random connected planar graph: an Apollonian-style stacked
    triangulation with random edge deletions (kept connected).
    Near-linear: a face is drawn from a Fenwick tree of slots in
    O(log n), and a deletion candidate costs one two-sided bridge search
    that usually stops within a triangle.  The output for every
    [(n, seed)] is the one the former quadratic body (a face list, and a
    rebuild plus connectivity check per candidate) gave; test_gen.ml
    keeps that body as the reference. *)

val planar_bounded_degree : n:int -> int -> Graph.t
(** A grid-with-diagonals variant: planar with max degree <= 8. *)

val nonplanar : n:int -> int -> Graph.t
(** A planar base with a subdivided K5 spliced in. *)

val triangulated_grid : n:int -> int -> Graph.t
(** Exactly [n] nodes: a [side x side] grid ([side = floor (sqrt n)])
    with one seeded random diagonal per cell (planar, max degree <= 8)
    and the leftover nodes trailing as a path off the last corner.  Flat
    CSR construction — the yes-instance family for the sharded engine's
    10^3..10^6 size ladder. *)

val nested_triangulation : n:int -> int -> Graph.t
(** Apollonian stacked triangulation with an O(1) array-backed face pool:
    maximal planar ([m = 3n - 6]), unbounded degree — the ladder's dense
    counterpart to {!triangulated_grid}. *)

val triangulated_grid_no : n:int -> int -> Graph.t
(** {!triangulated_grid} on [n - 15] nodes plus a once-subdivided K5
    attached to node 0: nonplanar, same scale. *)

val nested_triangulation_no : n:int -> int -> Graph.t
(** {!nested_triangulation} on [n - 15] nodes plus a once-subdivided K5
    attached to node 0: nonplanar, same scale. *)

val embedding : Graph.t -> Rotation.t option
(** Valid rotation system via the left-right embedder. *)

val corrupted_embedding : Graph.t -> int -> Rotation.t option
(** A rotation system of nonzero genus, obtained by perturbing a valid
    one. *)

(** {1 Series-parallel and treewidth <= 2 (§8)} *)

val series_parallel : size:int -> int -> Series_parallel.sp_tree * Graph.t
(** Random SP composition tree (duplicate-free) and its graph. *)

val series_parallel_no : size:int -> int -> (Graph.t * int list list) option
(** SP base plus an edge destroying series-parallelism, with the cheating
    ear decomposition (base ears + the extra edge as a chord ear);
    [None] if no such edge was found. *)

val treewidth2 : blocks:int -> int -> Graph.t
(** Chain of SP blocks glued at cut vertices. *)

val treewidth2_no : blocks:int -> int -> Graph.t option
(** Same plus an edge pushing some component's treewidth above 2. *)
