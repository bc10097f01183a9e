(** Adapters that turn protocol executions into {!Net.protocol} values.

    Two depths of fidelity:

    - {e Semantic} adapters ({!pls_spanning_tree}, {!st_verify},
      {!multiset_eq}) ship each node's real serialized label, built by
      the sub-protocol's own encoder.  A node's [node_check] decodes each
      heard neighbor frame once with the sub-protocol's decoder and calls
      the sub-protocol's own [verify_node], the check its synchronous run
      makes, with a lookup that answers [None] for an unheard neighbor.
      A heard frame that does not parse rejects.  A flipped bit reaches
      the check (checksum off) and flips the decision exactly when the
      corrupted field takes part in it — this measures the robustness of
      the {e proof itself} to corruption.  Under {!Fault.reliable} every
      neighbor is heard and the verdict equals the synchronous run's.

    - The {e transport} wrapper ({!transport}) runs any synchronous
      protocol result over a checksummed transport: corrupted frames are
      detected and discarded (the retransmission chain covers them like
      drops), so degradation comes entirely from delivery — drops past the
      retry budget, late frames, crashes, quorum loss.  This wraps every
      E2–E8 family without re-deriving its verifier. *)

val pls_spanning_tree : graph:Graph.t -> parent:int array -> Net.protocol
(** The one-round distance-labeling PLS ({!Dipp_baselines.Pls_spanning_tree}):
    node labels are tree depths, checked by
    [Pls_spanning_tree.verify_node]. *)

val st_verify :
  ?reps:int -> ?tag_bits:int -> seed:int -> Graph.t -> parent:int array -> Net.protocol
(** Lemma 2.5 spanning-tree verification: the exchanged label is the
    round-3 response (per repetition a sum and a tau), checked by
    {!Spanning_tree_verify.verify_node} with the coins drawn from [seed]. *)

val multiset_eq : seed:int -> Multiset_equality.instance -> Net.protocol
(** Lemma 2.6 multiset equality over a rooted tree: labels carry
    [(z, e1, e2)], checked by {!Multiset_equality.verify_node}; the
    communication graph is the instance's [tree]. *)

val transport :
  name:string -> graph:Graph.t -> stats:Dip.stats -> verdict:Dip.verdict -> Net.protocol
(** Checksummed-transport wrapper around any synchronous run: frames carry
    the per-prover-phase label envelope of [stats], and a node's local
    check is its verdict in [verdict].  With {!Fault.reliable} this
    reduces exactly to the synchronous outcome. *)
