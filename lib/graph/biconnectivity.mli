(** Cut vertices, biconnected components, and the block–cut tree.

    The outerplanarity protocol (paper §6) and the treewidth-2 protocol
    (§8) decompose the graph into biconnected components, root the block–cut
    tree at a component, and run per-component sub-protocols. *)

type t = {
  components : int list array;
      (** Per component: its node list (a node appears in every component it
          belongs to; cut vertices appear in several). *)
  component_edges : Graph.edge list array;
      (** Per component: its edge list.  Every edge is in exactly one. *)
  cut_vertex : bool array;  (** [cut_vertex.(v)] iff removing [v] disconnects. *)
}

val compute : Graph.t -> t
(** Requires a connected graph with at least one node. *)

val is_biconnected : Graph.t -> bool
(** Connected, and no cut vertex.  Graphs with fewer than 3 nodes follow the
    usual convention: a single edge or single node counts as biconnected. *)

(** Rooted block–cut tree.  Tree nodes are either blocks (components) or cut
    vertices; we expose just what the protocols need: per block, its
    distance-to-root (mod nothing — exact) and its separating vertex. *)
type rooted = {
  bc : t;
  root_block : int;
  block_depth : int array;  (** In blocks: #blocks on the path to the root block, root = 0. *)
  separating : int array;
      (** [separating.(b)] is the cut vertex connecting block [b] toward the
          root ([-1] for the root block). *)
  parent_block : int array;  (** Block containing [separating.(b)] one level up; [-1] for root. *)
}

val root : t -> root_block:int -> rooted

val chain_decomposition : Graph.t -> int list list option
(** Schmidt's chain decomposition of a connected graph: DFS tree plus one
    chain per back edge (walk from the upper endpoint down tree edges until
    an already-visited vertex).  Returns the chains in discovery order —
    when the graph is biconnected this is an open ear decomposition: the
    first chain is a cycle and every other chain is a path with distinct
    endpoints on earlier chains.  [None] for trees (no back edges).  No
    protocol calls it: it is the independent oracle the tests check
    {!is_biconnected} (Tarjan's low points) against. *)

val is_biconnected_chains : Graph.t -> bool
(** Schmidt's criterion: connected, some chain exists, every edge lies in a
    chain, and the first chain is the only cycle.  Agrees with
    {!is_biconnected} for n >= 3; the tests' oracle for it. *)
