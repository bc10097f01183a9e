(** Series-parallel graphs, SP-trees, and nested ear decompositions.

    The paper's protocols for Theorems 1.6/1.7 rest on Eppstein's
    characterization (paper Lemma 8.1): a graph is (two-terminal)
    series-parallel iff it admits a nested ear decomposition.  We provide:
    recognition by series/parallel reduction with SP-tree extraction, the
    constructive translation SP-tree -> nested ear decomposition, an exact
    checker for ear decompositions, and the degree-<=-2 elimination test for
    treewidth <= 2 (Lemma 8.2 companion). *)

type sp_tree =
  | Edge of int * int
  | Series of sp_tree * sp_tree  (** right terminal of the first = left terminal of the second *)
  | Parallel of sp_tree * sp_tree  (** same terminal pair *)

val terminals : sp_tree -> int * int

val graph_of_sp : n:int -> sp_tree -> Graph.t
(** The graph described by the tree, on node universe [0..n-1].  Raises if
    the tree repeats an edge (the composition would need a multigraph). *)

val decompose : Graph.t -> sp_tree option
(** SP recognition by exhaustive series/parallel reduction on a multigraph
    shadow; [Some t] iff the graph is two-terminal series-parallel (for some
    terminal pair).  Requires a connected graph. *)

val is_series_parallel : Graph.t -> bool

val is_treewidth_le_2 : Graph.t -> bool
(** Repeated elimination of degree-<=-2 vertices (joining the two neighbors
    when needed) empties the graph iff treewidth <= 2. *)

val ears_of_sp : sp_tree -> int list list
(** A nested ear decomposition: ears in dependency order (each non-first
    ear's endpoints lie on an earlier ear); the first ear is a
    terminal-to-terminal path. *)

val check_nested_ears : Graph.t -> int list list -> bool
(** Exact check of Eppstein's three conditions plus edge-partition.  No
    protocol calls it: it is the tests' oracle for {!ears_of_sp}. *)
