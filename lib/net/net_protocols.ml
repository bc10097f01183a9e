let zeros len = if len = 0 then Bits.empty else Bits.of_string (String.make len '0')

(* A semantic adapter ships each node's own label as its one round.  Its
   node_check decodes every heard neighbor frame once ([Some None]: heard
   but does not parse, which rejects) and hands the sub-protocol's own
   [verify_node] a lookup that answers [None] for an unheard neighbor. *)
let semantic ~name graph labels ~decode verify_node =
  let node_check v recv =
    let heard =
      Array.map
        (fun u -> Option.map (fun (frames : Bits.t array) -> decode frames.(0)) (recv u))
        (Graph.neighbors graph v)
    in
    Array.for_all (function Some None -> false | Some (Some _) | None -> true) heard
    && verify_node v (fun u ->
           match Graph.neighbor_slot graph v u with -1 -> None | i -> Option.join heard.(i))
  in
  { Net.name; graph; rounds = [| labels |]; checksum = false; node_check }

let pls_spanning_tree ~graph ~parent =
  let dist = Dipp_baselines.Pls_spanning_tree.depths graph ~parent in
  semantic ~name:"pls-spanning-tree" graph
    (Dipp_baselines.Pls_spanning_tree.depths_to_bits graph dist)
    ~decode:(Dipp_baselines.Pls_spanning_tree.depth_of_bits graph)
    (fun v heard ->
      Dipp_baselines.Pls_spanning_tree.verify_node graph ~parent ~depth:dist.(v) ~heard v)

let st_verify ?(reps = 4) ?(tag_bits = 4) ~seed graph ~parent =
  let coins = Spanning_tree_verify.draw_coins ~reps ~tag_bits ~parent (Rng.create seed) in
  let resp = Spanning_tree_verify.honest_response ~reps ~parent coins in
  let children = Traversal.children_of_parent parent in
  semantic ~name:"st-verify" graph (Spanning_tree_verify.response_to_bits resp)
    ~decode:(Spanning_tree_verify.label_of_bits coins)
    (fun v heard ->
      Spanning_tree_verify.verify_node ~parent ~children ~graph ~coins ~own:resp.(v) ~heard v)

let multiset_eq ~seed (inst : Multiset_equality.instance) =
  let field = Multiset_equality.field inst in
  let z = Multiset_equality.sample_z inst (Rng.create seed) in
  let labels = Multiset_equality.honest_labels inst ~z in
  let children = Traversal.children_of_parent inst.Multiset_equality.parent in
  semantic ~name:"multiset-eq" inst.Multiset_equality.tree
    (Multiset_equality.labels_to_bits inst labels)
    ~decode:(Multiset_equality.label_of_bits ~field)
    (fun v heard ->
      Multiset_equality.verify_node inst ~field ~children ~z_sampled:z ~own:labels.(v) ~heard v)

(* ---- checksummed transport wrapper (any E2-E8 protocol) --------------- *)

(* Runs any protocol's synchronous verdict over a CRC'd transport: frames
   carry the per-phase label envelope (content is irrelevant once a frame
   check discards corrupted copies), a node's local check is its original
   verdict, and degradation comes entirely from the delivery layer —
   Strict demands the whole neighborhood, Degrade applies the quorum. *)
let transport ~name ~graph ~(stats : Dip.stats) ~(verdict : Dip.verdict) =
  let n = Graph.n graph in
  let prover_sizes =
    List.filter_map
      (fun (ph, bits) ->
        match ph with Dip.Prover_phase -> Some bits | Dip.Verifier_phase -> None)
      stats.Dip.per_phase
  in
  let rounds =
    Array.of_list (List.map (fun bits -> Array.init n (fun _ -> zeros bits)) prover_sizes)
  in
  let rejected = Array.make n false in
  List.iter (fun v -> if v >= 0 && v < n then rejected.(v) <- true) verdict.Dip.rejecting;
  let node_check v _recv = not rejected.(v) in
  { Net.name; graph; rounds; checksum = true; node_check }
