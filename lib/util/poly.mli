(** Multiset characteristic polynomials over F_p.

    For a multiset [S] of field elements, [phi_S(x) = prod_{s in S} (s - x)].
    Two multisets of size <= k over a universe of size k^c are equal iff
    their polynomials agree, and unequal polynomials collide at a random
    point of F_p with probability <= k/p (polynomial identity testing,
    paper Lemma 2.6). *)

val eval : Fp.t -> int list -> int -> int
(** [eval f s x] is [phi_S(x)] over [f]. *)

val collision_bound : size:int -> p:int -> float
(** Upper bound [size/p] on the false-acceptance probability for multisets
    of the given size. *)
