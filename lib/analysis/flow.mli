(** The DIP-model locality analysis (rules [flow-locality] and
    [locality-traversal]).

    In the Kol–Oshman–Saxena model a verifier's decision at node [v] may
    read only [v]'s own coins and labels and its graph neighbors' labels.
    Inside every {e decision function} — a binding named [decide*],
    [verify*] or [*_check], or a literal lambda handed to
    [Dip.all_accept] — this module tracks the {e provenance} of values
    over the lattice

    {v Local < OwnCoin < NeighborLabel < GraphGlobal v}

    [Local] — node-local arithmetic (parameters, constants, loop
    counters); [OwnCoin] — read out of a coin/randomness store;
    [NeighborLabel] — read out of a label store addressed by the node or
    a bound neighbor; [GraphGlobal] — outer-scope state that never
    passed through the node's legal view.  Two sinks:

    - [flow-locality]: a [GraphGlobal] value reaches a container
      subscript ([Array]/[Bytes]/[String] get/set, the [.( )] sugar,
      [Hashtbl.find]/[find_opt]/[mem]/[replace]/[add]);
    - [locality-traversal]: a qualified reference to [Graph.edges],
      [Graph.fold_edges] or [Graph.iter_edges] (under any module prefix
      ending in [Graph]); neighborhood access must go through the
      per-node API ([Graph.neighbors], [Graph.degree], ...).

    The analysis is interprocedural: let-bound helpers get summaries
    (result taint plus latent findings replayed at call sites), and
    qualified calls resolve through the {!Typed_scan.program}.  So a
    non-local id laundered through a local slot is still caught:

    {[
      let verify v =
        let slot = Array.make 1 0 in
        slot.(0) <- leftmost_node;          (* non-local id parked locally *)
        labels.(slot.(0)) = labels.(v)      (* flagged: GraphGlobal index *)
    ]} *)

val rule_flow : string
(** ["flow-locality"] *)

val rule_traversal : string
(** ["locality-traversal"] *)

val is_decision_name : string -> bool
(** [decide*], [verify*] or [*_check]: the bindings audited as decision
    functions (also by {!Refine}'s subscript re-proof). *)

val check : program:Typed_scan.program -> Parsetree.structure -> Report.finding list
(** Runs the analysis over one implementation.  [program] supplies
    cross-module summaries for qualified calls (base taint only, capped
    at [Neighbor_label]); a call it does not resolve takes the taint of
    its arguments. *)
