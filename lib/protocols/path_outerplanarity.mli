(** Path-outerplanarity DIP (paper §5, Theorem 1.2 / Lemma 5.1).

    A graph is path-outerplanar iff it has a Hamiltonian path P with all
    non-path edges properly nested above P.  The protocol composes three
    parallel stages into 5 interaction rounds:

    1. Committing to a path: the prover encodes P with the constant-size
       forest encoding (Lemma 2.3), rooted at the leftmost node; nodes check
       the path shape locally and the interactive spanning-tree verification
       (Lemma 2.5) certifies that P spans the graph.
    2. LR-sorting: the prover orients every edge (one bit, via the planar
       edge-label simulation of Lemma 2.4) and the {!Lr_sorting} protocol
       certifies that all claimed orientations agree with P's left-to-right
       order (Lemma 4.2).
    3. Nesting verification: longest-left/right marks (Observation 2.1),
       per-node random names s_v, and successor/above labels chain every
       edge to the edge drawn directly above it; local conditions (1)-(5)
       of §5 force proper nesting up to name collisions.

    Two presentational refinements over the paper's text, both noted in
    DESIGN.md: the verifier conditions (4)/(5) are gated on 1-bit
    "has-left/right-edges" node labels (each self-checked deterministically
    against the node's own incident edges), which makes the transition
    checks strictly local; and the vb bit-pattern typo of §4.1 is fixed. *)

type instance = {
  graph : Graph.t;
  witness : int list option;  (** a nesting Hamiltonian path, if known *)
}

type prover =
  | Honest
  | Crossing_sweep
      (** best-effort labels on non-nesting inputs: true marks, tolerant
          sweep for successor/above *)
  | Flip_orientation  (** mis-orients crossing edges so nesting looks fine *)
  | Fake_path  (** commits two disjoint path segments instead of one path *)

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  lr : Lr_sorting.result option;  (** None when the committed P decodes to garbage *)
  transcript : (Dip.phase * Bits.t array) list;
      (** the top-level meter's retained frames; non-empty iff [retain] —
          component sub-runs meter separately and are not retained *)
}

val run :
  ?seed:int ->
  ?c:int ->
  ?param_n:int ->
  ?retain:bool ->
  ?codec:Bits_flat.codec ->
  prover:prover ->
  instance ->
  result
(** [param_n] sizes the random fields and name strings (defaults to the
    instance size); per-component callers pass the global node count so the
    soundness error is 1/polylog of the whole graph, as in the paper.
    [codec] selects the label cursor's backend ({!Bits_flat.Flat} by
    default); [Checked] is the reference, and both write the same bytes,
    here and in the LR-sorting sub-run. *)
