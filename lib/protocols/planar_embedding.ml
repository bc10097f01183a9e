type instance = { graph : Graph.t; rot : Rotation.t }

type reduction = {
  h : Graph.t;
  copy_owner : int array;
  copies_of : int list array;
}

let is_yes_instance inst = Rotation.is_planar_embedding inst.rot

(* The refined h(G, T, rho) construction.

   The brief announcement describes copies x_0(v)..x_chi(v) indexed by the
   first-tree-edge rule; with that granularity the rotations of tree leaves
   never influence h (a star spanning tree maps every non-tree edge at a
   leaf to the leaf's single copy), so the "iff" of Lemma 7.3 cannot hold.
   We therefore realize the construction FFM+21's proofs actually rely on:
   trace the boundary walk of T inside rho and emit one path node per
   corner (chi(v)+1 per node, as in the paper) *and one per non-tree dart*;
   each non-tree edge becomes the chord joining its two dart positions.
   rho is a planar embedding iff the chords are properly nested along the
   walk: on the sphere the complement of T is a disk whose boundary is the
   walk, and the non-tree edges embed in that disk without crossings iff
   their chords do not interleave.  Dart nodes are owned by their edge, so
   the Lemma 2.4 edge-label simulation keeps the per-node label count
   constant (see DESIGN.md). *)
let reduce inst ~root ~parent =
  let g = inst.graph in
  let n = Graph.n g in
  let copies_of = Array.make n [] in
  let seq = ref [] in
  let count = ref 0 in
  let dart_pos = Hashtbl.create 16 in
  let emit_corner v =
    let id = !count in
    incr count;
    copies_of.(v) <- id :: copies_of.(v);
    seq := (`Corner v) :: !seq
  in
  let emit_dart v u =
    let id = !count in
    incr count;
    Hashtbl.replace dart_pos (v, u) id;
    seq := (`Dart (v, u)) :: !seq
  in
  let is_tree v u = parent.(v) = u || parent.(u) = v in
  let rec walk v ~from =
    (* Scan rho_v clockwise starting just after the entry edge [from]
       (index 0 for the root), recursing into children and emitting
       non-tree darts in rotation order. *)
    emit_corner v;
    let r = inst.rot.Rotation.rot.(v) in
    let deg = Array.length r in
    if deg > 0 then begin
      let start =
        match from with
        | None -> deg - 1 (* root: pretend we entered just before index 0 *)
        | Some f ->
            let rec find i = if r.(i) = f then i else find (i + 1) in
            find 0
      in
      for k = 1 to deg - (match from with None -> 0 | Some _ -> 1) do
        let u = r.((start + k) mod deg) in
        if is_tree v u && parent.(u) = v then begin
          walk u ~from:(Some v);
          emit_corner v
        end
        else if not (is_tree v u) then emit_dart v u
      done
    end
  in
  walk root ~from:None;
  Array.iteri (fun v l -> copies_of.(v) <- List.rev l) copies_of;
  let total = !count in
  let copy_owner = Array.make total (-1) in
  List.iteri
    (fun i item ->
      let pos = total - 1 - i in
      match item with `Corner v -> copy_owner.(pos) <- v | `Dart (v, _) -> copy_owner.(pos) <- v)
    !seq;
  let path_edges = List.init (total - 1) (fun i -> (i, i + 1)) in
  let q_edges =
    Graph.fold_edges
      (fun (u, v) acc ->
        if is_tree u v then acc
        else (Hashtbl.find dart_pos (u, v), Hashtbl.find dart_pos (v, u)) :: acc)
      g []
  in
  let h = Graph.create ~n:total (path_edges @ List.map (fun (a, b) -> Graph.normalize_edge a b) q_edges) in
  { h; copy_owner; copies_of }

type prover = Honest | Crossing_sweep | Flip_orientation

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  inner : Path_outerplanarity.result;
  transcript : (Dip.phase * Bits.t array) list;
}

let run ?(seed = 0) ?(c = 3) ?(retain = false) ?(codec = Bits_flat.Flat) ~prover inst =
  let g = inst.graph in
  let n = Graph.n g in
  if n = 0 || not (Traversal.is_connected g) then
    invalid_arg "Planar_embedding.run: need a connected graph";
  let meter = Dip.meter ~retain () in
  let rng = Rng.create seed in
  let pa = Lr_sorting.Params.make ~c (max 2 ((2 * n) - 1)) in
  let nb = Fp.bit_width pa.Lr_sorting.Params.p in
  let root = 0 in
  let parent = Traversal.tree_parent g root in
  (* Round 1: commit T (Lemma 2.3). *)
  let enc = Forest_encoding.encode g ~parent in
  let cbits = Forest_encoding.color_bits enc in
  (* dipp-refine: width <= 10*loglog + 10 *)
  Dip.record_prover meter
    (Array.init n (fun v -> Forest_encoding.to_bits ~cbits enc.(v)));
  (* Rounds 2-3: certify T (Lemma 2.5). *)
  let reps = max 2 (nb / 2) in
  let st_coins = Spanning_tree_verify.draw_coins ~reps ~tag_bits:4 ~parent (Rng.split_string rng "st") in
  Dip.record_verifier meter (Spanning_tree_verify.coins_to_bits st_coins);
  let st_resp = Spanning_tree_verify.honest_response ~reps ~parent st_coins in
  let st_resp_bits = Spanning_tree_verify.response_to_bits st_resp in
  (* dipp-refine: width <= 20*loglog + 20 *)
  Dip.record_prover meter st_resp_bits;
  let children = Traversal.children_of_parent parent in
  let st_heard = Dip.heard_all st_resp in
  let st_verdict =
    Dip.all_accept ~n (fun v ->
        Spanning_tree_verify.verify_node ~parent ~children ~graph:g ~coins:st_coins
          ~own:st_resp.(v) ~heard:st_heard v)
  in
  (* The reduction and the inner path-outerplanarity run (rounds 1-5,
     simulated by the original nodes; each holds O(1) copies' labels). *)
  let red = reduce inst ~root ~parent in
  let inner_prover : Path_outerplanarity.prover =
    match prover with
    | Honest -> Path_outerplanarity.Honest
    | Crossing_sweep -> Path_outerplanarity.Crossing_sweep
    | Flip_orientation -> Path_outerplanarity.Flip_orientation
  in
  let witness = List.init (Graph.n red.h) Fun.id in
  let inner =
    Path_outerplanarity.run ~seed:(Rng.derive seed "h") ~c ~codec ~prover:inner_prover
      { Path_outerplanarity.graph = red.h; witness = Some witness }
  in
  (* Stats: every original node simulates at most 5 copies (its first and
     last copy, their path neighbours, and one copy per child direction
     held at the child), per Lemma 7.1. *)
  let own_stats = Dip.stats meter in
  let inner_stats = inner.Path_outerplanarity.stats in
  let stats =
    {
      own_stats with
      Dip.interaction_rounds = max own_stats.Dip.interaction_rounds inner_stats.Dip.interaction_rounds;
      proof_size_bits = own_stats.Dip.proof_size_bits + (5 * inner_stats.Dip.proof_size_bits);
      max_node_total_bits =
        own_stats.Dip.max_node_total_bits + (5 * inner_stats.Dip.max_node_total_bits);
      total_prover_bits = own_stats.Dip.total_prover_bits + inner_stats.Dip.total_prover_bits;
      total_verifier_bits = own_stats.Dip.total_verifier_bits + inner_stats.Dip.total_verifier_bits;
    }
  in
  let accepted = st_verdict.Dip.accepted && inner.Path_outerplanarity.verdict.Dip.accepted in
  {
    verdict =
      {
        Dip.accepted;
        rejecting =
          st_verdict.Dip.rejecting
          @ List.sort_uniq Int.compare (List.map (fun h -> red.copy_owner.(h)) inner.Path_outerplanarity.verdict.Dip.rejecting);
      };
    stats;
    inner;
    transcript = Dip.transcript meter;
  }
