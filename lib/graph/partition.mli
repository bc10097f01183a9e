(** Deterministic seeded graph partitioning for the sharded network engine.

    [make ~seed ~blocks g] grows [blocks] regions by multi-source BFS from
    seed nodes drawn from an {!Dipp_util.Rng} stream keyed by [seed] alone.
    The result is a pure function of [(g, blocks, seed)] — no dependence on
    hash order, scheduling, or the caller's RNG state — so two processes
    that agree on the inputs agree on every block, which is what lets the
    sharded engine's output stay byte-identical for any [DIPP_SHARDS].

    Invariants (QCheck-tested):
    - the blocks cover [0 .. n-1] and are pairwise disjoint;
    - each [blocks.(b)] is sorted ascending and [block.(v) = b] iff [v]
      is a member of [blocks.(b)];
    - [cut_edges] is the number of undirected edges whose endpoints land
      in different blocks (counted once per edge);
    - growth is capped at [ceil n / nblocks] members per block while any
      block is below the cap, so no block starves. *)

type t = {
  nblocks : int;  (** actual block count: [min blocks (max 1 n)] *)
  block : int array;  (** node -> owning block id *)
  blocks : int array array;  (** block id -> members, ascending *)
  pos : int array;  (** node -> index of the node inside its block *)
  cut_edges : int;  (** edges crossing between blocks *)
}

val make : ?seed:int -> blocks:int -> Graph.t -> t
(** [blocks] is clamped to [1 .. max 1 n]; [seed] defaults to [0].
    Raises [Invalid_argument] if [blocks < 1]. *)

