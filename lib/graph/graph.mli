(** Undirected simple graphs on nodes [0 .. n-1].

    Immutable after construction; neighbor arrays are sorted so membership
    tests are logarithmic.  This is the instance type for every verification
    task in the paper: instances carry no node inputs beyond the topology
    (and, for embedded planarity, a rotation system kept separately). *)

type t

type edge = int * int
(** Normalized: [(u, v)] with [u < v]. *)

val create : n:int -> edge list -> t
(** Builds a graph.  Duplicate edges are collapsed; self-loops are
    rejected ([Invalid_argument]). *)

val of_edge_array : n:int -> (int * int) array -> t
(** Like {!create} on an edge array, via a two-pass CSR-style build
    (degree count, in-place fill, per-row sort + dedup) with no
    intermediate per-node lists — the constructor for 10^5..10^6-node
    instances.  Endpoints may come in either order; duplicates are
    collapsed and self-loops / out-of-range ids are rejected with the
    same messages as {!create}. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val neighbors : t -> int -> int array
(** Sorted, read-only by convention (do not mutate). *)

val degree : t -> int -> int
val max_degree : t -> int
val mem_edge : t -> int -> int -> bool

val neighbor_slot : t -> int -> int -> int
(** [neighbor_slot t u v] is the index of [v] in [neighbors t u], or [-1]
    when [uv] is not an edge; a binary search. *)

val edges : t -> edge list
(** All edges, normalized, in lexicographic order. *)

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (edge -> unit) -> t -> unit

val normalize_edge : int -> int -> edge

val compare_edge : edge -> edge -> int
(** Lexicographic; the typed comparator for edge sets/maps and sorts
    (never use polymorphic [compare] on edges). *)

val add_edges : t -> edge list -> t
val remove_edges : t -> edge list -> t

val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] (relabelled
    [0..k-1] in the given order) together with the map from new ids back to
    original ids.  Walks only the members' rows: O((k + their degrees)
    log k), nothing of size [n g].  [Invalid_argument] on a repeated
    node. *)

val relabel : t -> perm:int array -> t
(** [relabel g ~perm] renames node [v] to [perm.(v)]; [perm] must be a
    permutation of [0..n-1]. *)

val union_disjoint : t list -> t * int array array
(** Disjoint union; also returns, per input graph, the map from its node ids
    to ids in the union. *)

val equal : t -> t -> bool
(** Same node count and same edge set. *)

val pp : Format.formatter -> t -> unit

(** Common constructions, used throughout tests and generators. *)

val path_graph : int -> t
(** [path_graph n]: edges (i, i+1). *)

val cycle_graph : int -> t
val complete : int -> t
val complete_bipartite : int -> int -> t
val star : int -> t
(** [star n]: node 0 joined to [1..n-1]. *)

val grid : int -> int -> t
(** [grid rows cols], node [(r, c)] at id [r * cols + c]. *)

val subdivide : t -> times:int -> t
(** Replace every edge by a path of [times + 1] edges (new interior nodes
    get fresh ids).  Preserves planarity and non-planarity. *)
