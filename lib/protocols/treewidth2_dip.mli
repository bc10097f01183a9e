(** Treewidth <= 2 DIP (paper §8, Theorem 1.7, via Lemma 8.2).

    A graph has treewidth at most 2 iff every biconnected component is
    series-parallel.  The prover commits the block-cut decomposition (cut
    bits + per-component spanning trees via Lemmas 2.3/2.5, glued with the
    random cut-tag mechanism of the outerplanarity protocol) and the
    series-parallel protocol of Theorem 1.6 runs on every component in
    parallel. *)

type instance = { graph : Graph.t }

type prover =
  | Honest
  | Component_cheat  (** per-component Ear_cheat on non-SP components *)

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  component_results : Series_parallel_dip.result list;
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
    It is threaded into every per-component {!Series_parallel_dip} run. *)
