(** Constant-size distributed encoding of a rooted spanning forest
    (paper Lemma 2.3).

    The prover contracts every odd-depth node into its parent (graph
    [G_odd]) and every even-depth node into its parent ([G_even]); both are
    minors of a planar graph, hence planar, and get proper colorings.  A
    node's label is its two contraction colors plus its depth parity (we add
    an explicit root bit); each node then recognizes its parent and children
    purely from its own and its neighbors' labels.

    Substitution (DESIGN.md #1): instead of the Four-Color theorem we color
    greedily along a degeneracy order, giving <= 6 colors on planar inputs —
    labels stay O(1) bits. *)

type label = { c1 : int; c2 : int; parity : bool; root : bool }

val encode : Graph.t -> parent:int array -> label array
(** [parent.(v) = -1] marks v a root.  Requires [parent] edges to be graph
    edges and the parent structure to be acyclic (honest prover input). *)

val color_bits : label array -> int
(** Bits needed per color field to serialize this assignment. *)

val width : cbits:int -> int
(** Serialized size of one label given the color field width. *)

val to_bits : cbits:int -> label -> Bits.t
val read : cbits:int -> Bits.Reader.t -> label

(** Local decoding — each function sees only the node's own label and its
    neighbors' labels, as in the model. *)

val parent_candidates : own:label -> nbrs:(int * label) list -> int list

val locally_wellformed : own:label -> nbrs:(int * label) list -> bool
(** Root has no parent candidate; a non-root has exactly one. *)
