(** Combinatorial embeddings (rotation systems).

    A rotation system assigns every node a cyclic (clockwise) order of its
    incident edges — exactly the distributed input of the planar-embedding
    task (paper §7).  Face tracing plus Euler's formula decides whether the
    rotation system is a planar embedding: a connected graph with rotation
    system has genus [g] where [n - m + f = 2 - 2g], so the embedding is
    planar iff [n - m + f = 2] (more generally [1 + c] faces-adjusted for
    [c] components). *)

type t = {
  graph : Graph.t;
  rot : int array array;
      (** [rot.(v)] lists v's neighbors in clockwise order; must be a
          permutation of [Graph.neighbors graph v]. *)
}

val create : Graph.t -> int array array -> t
(** Validates that each [rot.(v)] is a permutation of v's neighbors. *)

val default : Graph.t -> t
(** Rotation = sorted neighbor order (an arbitrary, usually non-planar,
    embedding). *)

val index : t -> int -> int -> int
(** [index t] builds, in O(n + m), the table of every dart's place in its
    rotation and returns the lookup: [index t v u] is the position of [u]
    in [t.rot.(v)], for [uv] an edge, found by a binary search for [u]'s
    slot in [v]'s sorted neighbour row.  Apply it to [t] once and reuse
    the lookup. *)

val faces : t -> (int * int) list list
(** The face walks: every dart (directed edge) appears in exactly one walk.
    The walk following dart [(u, v)] continues with [(v, w)] where [w] is
    the successor of [u] in the clockwise order at [v] (face tracing to the
    left of each dart).  Each step reads the {!index} table: O(m log
    Delta) in all. *)

val face_count : t -> int
(** The number of face walks, plus one face for every node without
    neighbors: an isolated node sits alone in a face of its own. *)

val euler_genus : t -> int
(** [2c - (n - m + f)] for [c] connected components and [f =
    face_count]: Euler's formula [n - m + f = 2 - eg] summed over the
    components gives the Euler genus [eg], which is 0 iff the embedding is
    planar (spherical).  Besides {!is_planar_embedding},
    [examples/embedding_audit.ml] prints it for an honest and a corrupted
    rotation. *)

val is_planar_embedding : t -> bool
(** True iff the rotation system embeds the graph in the plane, i.e. Euler
    genus 0. *)

val corrupt_swap : t -> Rng.t -> t option
(** Swap two entries in the rotation of a random node of degree >= 3 whose
    swap changes the face structure — used to build no-instances for the
    embedded-planarity experiments.  [None] if no eligible node exists or
    the perturbation stayed planar. *)
