(** Directed simple graphs on nodes [0 .. n-1].

    The LR-sorting task (paper §2) takes a directed graph whose yes-instances
    are exactly the DAGs whose unique topological order is the given
    Hamiltonian path.  A directed edge [(u, v)] is the claim "u precedes v".

    No shipped code path builds one: the module is the independent oracle
    for [Lr_sorting.is_yes_instance], which test_io checks against
    {!topological_sort} on generated yes- and no-instances. *)

type t

val create : n:int -> (int * int) list -> t
(** Duplicate arcs collapsed; self-loops rejected. *)

val n : t -> int
val m : t -> int
val out_neighbors : t -> int -> int array
val in_neighbors : t -> int -> int array
val mem_arc : t -> int -> int -> bool
val arcs : t -> (int * int) list
val fold_arcs : (int * int -> 'a -> 'a) -> t -> 'a -> 'a

val underlying : t -> Graph.t
(** Forgets orientation (parallel opposite arcs collapse to one edge). *)

val orient : Graph.t -> order:int array -> t
(** [orient g ~order] directs every edge of [g] from the endpoint with the
    smaller [order] value toward the larger; [order] must be injective. *)

val is_acyclic : t -> bool

val topological_sort : t -> int list option
(** A topological order of the nodes, or [None] when the digraph has a
    cycle (i.e. exactly on LR-sorting no-instances). *)

val pp : Format.formatter -> t -> unit
