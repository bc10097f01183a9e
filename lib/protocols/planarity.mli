(** Planarity DIP (paper §7, Theorem 1.5 / Lemma 7.2).

    Instance: a bare graph; task: decide planarity.  The honest prover
    computes a combinatorial planar embedding (here: the left-right
    planarity test of {!Dipp_graph.Planarity}) and communicates the
    clockwise orders by writing the pair (rho_u(e), rho_v(e)) on every
    edge — O(log Delta) bits per edge, homed in node labels through the
    Lemma 2.4 forest fields — then the {!Planar_embedding} protocol
    certifies the claimed embedding.
    Proof size: O(log log n + log Delta); soundness: a non-planar graph has
    no valid rotation system, so whatever the prover sends is rejected with
    probability 1 - 1/polylog n. *)

type instance = { graph : Graph.t }

type prover =
  | Honest
  | Best_rotation
      (** sends the sorted neighbor order on a non-planar graph, as
          [Honest] does, and best-effort labels in the embedded-planarity
          run *)

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  inner : Planar_embedding.result;
  transcript : (Dip.phase * Bits.t array) list;
      (** the top-level meter's retained frames; non-empty iff [retain] —
          component sub-runs meter separately and are not retained *)
}

val run :
  ?seed:int ->
  ?c:int ->
  ?retain:bool ->
  ?codec:Bits_flat.codec ->
  prover:prover ->
  instance ->
  result
(** [codec] selects the label cursor's backend ({!Bits_flat.Flat} by
    default); [Checked] is the reference, and both write the same bytes.
    It is threaded through the inner {!Planar_embedding} run. *)
