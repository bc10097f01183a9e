(** Graph traversals and connectivity. *)

val bfs : Graph.t -> int -> int array
(** [bfs g src] is the array of hop distances from [src]; unreachable nodes
    get [-1]. *)

val components : Graph.t -> int array * int
(** [(comp, k)]: component id per node in [0..k-1]. *)

val is_connected : Graph.t -> bool
(** Vacuously true for the empty graph. *)

val spanning_tree : Graph.t -> int -> int array
(** [spanning_tree g root] is a BFS-tree parent array; [parent.(root) =
    root]; unreachable nodes get [-1]. *)

val tree_parent : Graph.t -> int -> int array
(** {!spanning_tree} with the root marked [-1], as the protocols take
    parent arrays; a node unreachable from [root] is [-1] as well. *)

val children_of_parent : int array -> int list array
(** [children_of_parent parent] lists, per node, the nodes whose entry in
    [parent] names it, in descending id order; negative entries (roots)
    are nobody's children. *)

val dfs_order : Graph.t -> int -> int list
(** Preorder of the DFS from the given root, visiting neighbors in
    ascending id order; only reachable nodes appear. *)

val hamiltonian_path_of_edges : n:int -> Graph.edge list -> int list option
(** If the given edge set forms a Hamiltonian path on [0..n-1], returns the
    node sequence from one designated endpoint (the smaller-id endpoint
    first); otherwise [None].  Used to validate path witnesses. *)
