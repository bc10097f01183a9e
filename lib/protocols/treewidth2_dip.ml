type instance = { graph : Graph.t }

type prover = Honest | Component_cheat

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  component_results : Series_parallel_dip.result list;
  transcript : (Dip.phase * Bits.t array) list;
}

let run ?(seed = 0) ?(c = 3) ?(retain = false) ?(codec = Bits_flat.Flat) ~prover inst =
  let g = inst.graph in
  let n = Graph.n g in
  if n = 0 || not (Traversal.is_connected g) then invalid_arg "Treewidth2_dip.run: need a connected graph";
  let meter = Dip.meter ~retain () in
  let rng = Rng.create seed in
  let pa = Lr_sorting.Params.make ~c n in
  let nb = Fp.bit_width pa.Lr_sorting.Params.p in
  let bc = Biconnectivity.compute g in
  let k = Array.length bc.Biconnectivity.components in
  let rooted = Biconnectivity.root bc ~root_block:0 in
  let cut_bit = bc.Biconnectivity.cut_vertex in

  (* block identity per non-cut node; cut nodes belong to their parent-ward
     component for tag purposes *)
  let blk_of = Array.make n (-1) in
  Array.iteri
    (fun b nodes ->
      List.iter
        (fun v -> if (not cut_bit.(v)) || rooted.Biconnectivity.separating.(b) <> v then blk_of.(v) <- b)
        nodes)
    bc.Biconnectivity.components;

  (* spanning forest: per component, a BFS tree rooted at its separating
     node (root component: at its first node); the union is a spanning tree
     of g, committed and certified once *)
  let parent = Array.make n (-1) in
  Array.iteri
    (fun b nodes ->
      let sub, back = Graph.induced g nodes in
      let inv = Array.make n (-1) in
      Array.iteri (fun i orig -> inv.(orig) <- i) back;
      let sep = rooted.Biconnectivity.separating.(b) in
      let root_local = if sep < 0 then 0 else inv.(sep) in
      let p = Traversal.spanning_tree sub root_local in
      Array.iteri
        (fun i pi ->
          let orig = back.(i) in
          if pi <> i && pi >= 0 && (parent.(orig) = -1 || not cut_bit.(orig)) then
            parent.(orig) <- back.(pi))
        p)
    bc.Biconnectivity.components;
  let enc = Forest_encoding.encode g ~parent in
  let cbits = Forest_encoding.color_bits enc in
  let lenc = Bounds.label_encoder codec "treewidth2_dip" ~n ~delta:(Graph.max_degree g) in
  let r1_node v =
    Bits_flat.Enc.reset lenc;
    Bits_flat.Enc.bits lenc (Forest_encoding.to_bits ~cbits enc.(v));
    Bits_flat.Enc.bool lenc cut_bit.(v);
    Bits_flat.Enc.to_bits lenc
  in
  (* dipp-refine: width <= 10*loglog + 10 *)
  Dip.record_prover meter (Array.init n r1_node);

  let reps = max 2 (nb / 2) in
  let st_coins = Spanning_tree_verify.draw_coins ~reps ~tag_bits:4 ~parent (Rng.split_string rng "st") in
  let cut_coins = Rng.split_string rng "cut" in
  let samples =
    Array.init n (fun v -> if cut_bit.(v) then Some (Bits.random (Rng.split cut_coins v) nb) else None)
  in
  let st_coin_bits = Spanning_tree_verify.coins_to_bits st_coins in
  Dip.record_verifier meter
    (Array.init n (fun v ->
         Bits.concat [ st_coin_bits.(v); (match samples.(v) with Some s -> s | None -> Bits.empty) ]));

  let st_resp = Spanning_tree_verify.honest_response ~reps ~parent st_coins in
  (* component tag = the separating cut node's sample (root component: a
     fresh pseudo-tag derived from the run randomness) *)
  let root_tag = Bits.random (Rng.split_string rng "root") nb in
  let comp_tag b =
    let s = rooted.Biconnectivity.separating.(b) in
    if s < 0 then root_tag else Option.value ~default:Bits.empty samples.(s)
  in
  let tag_of v = if blk_of.(v) >= 0 then comp_tag blk_of.(v) else Bits.empty in
  let st_resp_bits = Spanning_tree_verify.response_to_bits st_resp in
  let r3_node v =
    Bits_flat.Enc.reset lenc;
    Bits_flat.Enc.bits lenc st_resp_bits.(v);
    Bits_flat.Enc.bits lenc (tag_of v);
    Bits_flat.Enc.to_bits lenc
  in
  (* dipp-refine: width <= 20*loglog + 20 *)
  Dip.record_prover meter (Array.init n r3_node);

  (* per-component series-parallel runs *)
  let comp_prover : Series_parallel_dip.prover =
    match prover with Honest -> Series_parallel_dip.Honest | Component_cheat -> Series_parallel_dip.Ear_cheat
  in
  let component_results =
    List.filter_map
      (fun b ->
        let nodes = bc.Biconnectivity.components.(b) in
        if List.length nodes < 2 then None
        else begin
          let sub, _back = Graph.induced g nodes in
          if Graph.n sub = 2 then None (* a bridge is trivially SP *)
          else begin
            let ears =
              match Series_parallel_dip.derive_ears sub with
              | Some e -> Some e
              | None -> (
                  (* non-SP component: best effort — ears of a maximal SP
                     subgraph plus leftover chord ears *)
                  let rec strip g' removed =
                    match Series_parallel.decompose g' with
                    | Some t -> Some (Series_parallel.ears_of_sp t, removed)
                    | None -> (
                        match List.rev (Graph.edges g') with
                        | [] -> None
                        | e :: _ -> strip (Graph.remove_edges g' [ e ]) (e :: removed))
                  in
                  match strip sub [] with
                  | Some (ears, removed) -> Some (ears @ List.map (fun (u, v) -> [ u; v ]) removed)
                  | None -> None)
            in
            Some
              (Series_parallel_dip.run ~seed:(Rng.derive seed ("block/" ^ string_of_int b)) ~c
                 ~param_n:n ~codec ~prover:comp_prover
                 { Series_parallel_dip.graph = sub; ears })
          end
        end)
      (List.init k Fun.id)
  in

  (* gluing verification *)
  let children = Traversal.children_of_parent parent in
  let st_heard = Dip.heard_all st_resp in
  let verify v =
    let ok = ref true in
    let fail () = ok := false in
    if
      not
        (Spanning_tree_verify.verify_node ~parent ~children ~graph:g ~coins:st_coins
           ~own:st_resp.(v) ~heard:st_heard v)
    then fail ();
    (match samples.(v) with
    | Some s ->
        (* cut node: its non-parent-ward tree children carry its tag *)
        List.iter
          (fun ch ->
            if blk_of.(ch) >= 0 && blk_of.(ch) <> blk_of.(v) && not (Bits.equal (tag_of ch) s) then fail ())
          children.(v)
    | None -> ());
    if not cut_bit.(v) then
      Array.iter
        (fun u ->
          let same = Bits.equal (tag_of u) (tag_of v) in
          let u_is_my_sep =
            cut_bit.(u) && (match samples.(u) with Some s -> Bits.equal (tag_of v) s | None -> false)
          in
          if not (same || u_is_my_sep) then fail ())
        (Graph.neighbors g v);
    !ok
  in
  let structural = Dip.all_accept ~n verify in
  let comp_ok = List.for_all (fun r -> r.Series_parallel_dip.verdict.Dip.accepted) component_results in
  let verdict =
    { Dip.accepted = structural.Dip.accepted && comp_ok; rejecting = structural.Dip.rejecting }
  in
  let stats =
    Dip.merge_components (Dip.stats meter)
      (List.map (fun r -> r.Series_parallel_dip.stats) component_results)
  in
  { verdict; stats; component_results; transcript = Dip.transcript meter }
