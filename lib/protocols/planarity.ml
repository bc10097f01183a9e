type instance = { graph : Graph.t }

type prover = Honest | Best_rotation

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  inner : Planar_embedding.result;
  transcript : (Dip.phase * Bits.t array) list;
}

(* The bits that hold every value in [0, x]; at least one, so a field
   whose values are all zero still takes a bit. *)
let bits_for x = max 1 (Ilog.ceil_log2 (x + 1))

let run ?(seed = 0) ?(c = 3) ?(retain = false) ?(codec = Bits_flat.Flat) ~prover inst =
  let g = inst.graph in
  let n = Graph.n g in
  if n = 0 || not (Traversal.is_connected g) then invalid_arg "Planarity.run: need a connected graph";
  let meter = Dip.meter ~retain () in
  (* The claimed rotation system, the same for both provers: the embedding
     when there is one, else the sorted neighbor order, since a non-planar
     graph has no valid embedding to send. *)
  let rot = match Dipp_graph.Planarity.embed g with Some r -> r | None -> Rotation.default g in
  (* Round 1: the prover writes (rho_u(e), rho_v(e)) on every edge, homed in
     node labels via Lemma 2.4: O(log Delta) bits per node. *)
  let el = Edge_labels.create g in
  let wd = bits_for (max 1 (Graph.max_degree g - 1)) in
  let rho_index = Rotation.index rot in
  let lenc = Bounds.label_encoder codec "planarity" ~n ~delta:(Graph.max_degree g) in
  let edge_label (u, v) =
    Bits_flat.Enc.reset lenc;
    Bits_flat.Enc.int lenc ~width:wd (rho_index u v);
    Bits_flat.Enc.int lenc ~width:wd (rho_index v u);
    Bits_flat.Enc.to_bits lenc
  in
  let assignment = Edge_labels.assign el ~width:(2 * wd) edge_label in
  let el_setup = Edge_labels.setup_labels el in
  let r1_node v =
    Bits_flat.Enc.reset lenc;
    Bits_flat.Enc.bits lenc el_setup.(v);
    Bits_flat.Enc.bits lenc assignment.(v);
    Bits_flat.Enc.to_bits lenc
  in
  (* dipp-refine: width <= 16*loglog + 8*logdelta + 20 *)
  Dip.record_prover meter (Array.init n r1_node);
  (* Each node reconstructs its clockwise order from the rho values it can
     read (all its incident edges' labels) and checks they form a
     permutation of 0..deg-1; then the embedded-planarity protocol runs. *)
  let rho_read = Array.init n (fun v -> Array.map (rho_index v) (Graph.neighbors g v)) in
  let perm_ok =
    Dip.all_accept ~n (fun v ->
        let seen = Array.make (Graph.degree g v) false in
        Array.for_all
          (fun i ->
            if i < Array.length seen && not seen.(i) then begin
              seen.(i) <- true;
              true
            end
            else false)
          rho_read.(v))
  in
  let inner_prover : Planar_embedding.prover =
    match prover with Honest -> Planar_embedding.Honest | Best_rotation -> Planar_embedding.Crossing_sweep
  in
  let inner =
    Planar_embedding.run ~seed:(Rng.derive seed "embedding") ~c ~codec ~prover:inner_prover
      { Planar_embedding.graph = g; rot }
  in
  let own = Dip.stats meter in
  let stats = Dip.merge_parallel [ own; inner.Planar_embedding.stats ] in
  let accepted = perm_ok.Dip.accepted && inner.Planar_embedding.verdict.Dip.accepted in
  {
    verdict =
      { Dip.accepted; rejecting = perm_ok.Dip.rejecting @ inner.Planar_embedding.verdict.Dip.rejecting };
    stats;
    inner;
    transcript = Dip.transcript meter;
  }
