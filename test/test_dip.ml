(* DIP framework: metering, Lemma 2.3 forest encoding, Lemma 2.4 edge-label
   simulation, Lemma 2.5 spanning-tree verification, Lemma 2.6 multiset
   equality. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Dip meter -------------------------------------------------------- *)

let test_meter_rounds_and_sizes () =
  let m = Dip.meter () in
  Dip.record_prover m [| Bits.of_string "101"; Bits.of_string "11" |];
  Dip.record_verifier m [| Bits.of_string "0"; Bits.empty |];
  Dip.record_prover m [| Bits.of_string "1"; Bits.of_string "11111" |];
  let s = Dip.stats m in
  Alcotest.(check int) "rounds" 3 s.Dip.interaction_rounds;
  Alcotest.(check int) "proof size" 5 s.Dip.proof_size_bits;
  Alcotest.(check int) "node total" 7 s.Dip.max_node_total_bits;
  Alcotest.(check int) "prover total" 11 s.Dip.total_prover_bits;
  Alcotest.(check int) "verifier total" 1 s.Dip.total_verifier_bits;
  Alcotest.(check (list bool)) "phases"
    [ true; false; true ]
    (List.map (fun p -> p = Dip.Prover_phase) s.Dip.phases)

let test_merge_parallel () =
  let mk rounds proof =
    {
      Dip.interaction_rounds = rounds;
      proof_size_bits = proof;
      max_node_total_bits = proof;
      total_prover_bits = 10 * proof;
      total_verifier_bits = proof;
      phases = [];
      per_phase = [];
    }
  in
  let m = Dip.merge_parallel [ mk 3 10; mk 5 7 ] in
  Alcotest.(check int) "rounds max" 5 m.Dip.interaction_rounds;
  Alcotest.(check int) "proof sums" 17 m.Dip.proof_size_bits;
  (* per-phase schedules merge round by round: phase maxima add on shared
     rounds, the longer schedule's tail (and phase kinds) survive *)
  let a =
    { (mk 3 10) with Dip.per_phase = [ (Dip.Prover_phase, 10); (Dip.Verifier_phase, 2); (Dip.Prover_phase, 4) ] }
  and b = { (mk 2 7) with Dip.per_phase = [ (Dip.Prover_phase, 7); (Dip.Verifier_phase, 3) ] } in
  let m2 = Dip.merge_parallel [ a; b ] in
  Alcotest.(check (list (pair bool int)))
    "per-phase merged per round"
    [ (true, 17); (false, 5); (true, 4) ]
    (List.map (fun (ph, bits) -> (ph = Dip.Prover_phase, bits)) m2.Dip.per_phase)

(* A stats value whose schedule alternates P, V, P, ... — any two such
   schedules are prefix-compatible, so merges never raise. *)
let stats_of_sizes sizes =
  let per_phase =
    List.mapi
      (fun i bits -> ((if i mod 2 = 0 then Dip.Prover_phase else Dip.Verifier_phase), bits))
      sizes
  in
  let sum_phase want =
    List.fold_left (fun acc (ph, b) -> if ph = want then acc + b else acc) 0 per_phase
  in
  let prover = sum_phase Dip.Prover_phase and verifier = sum_phase Dip.Verifier_phase in
  {
    Dip.interaction_rounds = List.length sizes;
    proof_size_bits = prover;
    max_node_total_bits = prover + verifier;
    total_prover_bits = prover;
    total_verifier_bits = verifier;
    phases = List.map fst per_phase;
    per_phase;
  }

let test_merge_phase_mismatch () =
  let p = stats_of_sizes [ 3; 1 ] in
  (* same length but the first round claims to be a verifier phase *)
  let v = { p with Dip.per_phase = [ (Dip.Verifier_phase, 2); (Dip.Prover_phase, 1) ] } in
  let expect_invalid name f =
    match f () with
    | (_ : Dip.stats) -> Alcotest.failf "%s: phase-kind mismatch did not raise" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "merge_parallel" (fun () -> Dip.merge_parallel [ p; v ]);
  expect_invalid "merge_parallel (swapped)" (fun () -> Dip.merge_parallel [ v; p ]);
  expect_invalid "merge_trials" (fun () -> Dip.merge_trials [ p; v ]);
  expect_invalid "merge_trials (swapped)" (fun () -> Dip.merge_trials [ v; p ]);
  (* prefix-compatible inputs of different lengths still merge fine *)
  let longer = stats_of_sizes [ 5; 2; 7 ] in
  let m = Dip.merge_parallel [ p; longer ] in
  Alcotest.(check int) "compatible lengths merge" 3 (List.length m.Dip.per_phase)

let arb_sizes = QCheck.(list_of_size Gen.(int_range 1 5) (int_bound 50))

let prop_merge_assoc =
  QCheck.Test.make ~name:"merge_trials/merge_parallel: associative" ~count:200
    QCheck.(triple arb_sizes arb_sizes arb_sizes)
    (fun (sa, sb, sc) ->
      let a = stats_of_sizes sa and b = stats_of_sizes sb and c = stats_of_sizes sc in
      let flat_t = Dip.merge_trials [ a; b; c ]
      and flat_p = Dip.merge_parallel [ a; b; c ] in
      Dip.merge_trials [ Dip.merge_trials [ a; b ]; c ] = flat_t
      && Dip.merge_trials [ a; Dip.merge_trials [ b; c ] ] = flat_t
      && Dip.merge_parallel [ Dip.merge_parallel [ a; b ]; c ] = flat_p
      && Dip.merge_parallel [ a; Dip.merge_parallel [ b; c ] ] = flat_p)

let prop_merge_singleton_identity =
  QCheck.Test.make ~name:"merge_trials/merge_parallel: identity on singletons" ~count:200
    arb_sizes
    (fun sizes ->
      let s = stats_of_sizes sizes in
      Dip.merge_trials [ s ] = s && Dip.merge_parallel [ s ] = s)

let prop_merge_components =
  QCheck.Test.make ~name:"merge_components: size envelope, summed totals, top schedule"
    ~count:200
    QCheck.(pair arb_sizes (list_of_size Gen.(int_range 0 4) arb_sizes))
    (fun (top_sizes, batch) ->
      let top = stats_of_sizes top_sizes and subs = List.map stats_of_sizes batch in
      let m = Dip.merge_components top subs in
      let all = top :: subs in
      let max_of f = List.fold_left (fun acc s -> max acc (f s)) 0 all
      and sum f = List.fold_left (fun acc s -> acc + f s) 0 all in
      m.Dip.interaction_rounds = max_of (fun s -> s.Dip.interaction_rounds)
      && m.Dip.proof_size_bits = max_of (fun s -> s.Dip.proof_size_bits)
      && m.Dip.max_node_total_bits = max_of (fun s -> s.Dip.max_node_total_bits)
      && m.Dip.total_prover_bits = sum (fun s -> s.Dip.total_prover_bits)
      && m.Dip.total_verifier_bits = sum (fun s -> s.Dip.total_verifier_bits)
      && m.Dip.phases = top.Dip.phases
      && m.Dip.per_phase = top.Dip.per_phase
      && Dip.merge_components top (List.rev subs) = m)

let prop_merge_envelope =
  QCheck.Test.make ~name:"merge_trials envelope >= inputs; merge_parallel totals = sums"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 4) arb_sizes)
    (fun batch ->
      let sts = List.map stats_of_sizes batch in
      let mt = Dip.merge_trials sts and mp = Dip.merge_parallel sts in
      let dominates s =
        mt.Dip.proof_size_bits >= s.Dip.proof_size_bits
        && mt.Dip.max_node_total_bits >= s.Dip.max_node_total_bits
        && mt.Dip.interaction_rounds >= s.Dip.interaction_rounds
        && List.for_all2
             (fun (_, m) (_, b) -> m >= b)
             (List.filteri (fun i _ -> i < List.length s.Dip.per_phase) mt.Dip.per_phase)
             s.Dip.per_phase
      in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 sts in
      List.for_all dominates sts
      && mt.Dip.total_prover_bits = sum (fun s -> s.Dip.total_prover_bits)
      && mp.Dip.proof_size_bits = sum (fun s -> s.Dip.proof_size_bits)
      && mp.Dip.total_prover_bits = sum (fun s -> s.Dip.total_prover_bits)
      && mp.Dip.total_verifier_bits = sum (fun s -> s.Dip.total_verifier_bits))

let test_all_accept () =
  let v = Dip.all_accept ~n:5 (fun i -> i <> 2 && i <> 4) in
  Alcotest.(check bool) "rejected" false v.Dip.accepted;
  Alcotest.(check (list int)) "rejecting nodes" [ 2; 4 ] v.Dip.rejecting

(* ---- Forest encoding (Lemma 2.3) --------------------------------------- *)

(* Whole-graph decode from the per-node checks: the parent array with -1
   at roots, or None if some node is not locally well-formed. *)
let decode_forest g labels =
  let out = Array.make (Graph.n g) (-1) in
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    let own = labels.(v) and nbrs = Array.to_list (Array.map (fun u -> (u, labels.(u))) (Graph.neighbors g v)) in
    if not (Forest_encoding.locally_wellformed ~own ~nbrs) then ok := false
    else match Forest_encoding.parent_candidates ~own ~nbrs with [ p ] -> out.(v) <- p | _ -> ()
  done;
  if !ok then Some out else None

(* The neighbours that point to [own] as their parent. *)
let children_of ~(own : Forest_encoding.label) ~nbrs =
  List.filter_map
    (fun (u, (l : Forest_encoding.label)) ->
      if l.parity <> own.parity && (if own.parity then l.c2 = own.c2 else l.c1 = own.c1) then Some u
      else None)
    nbrs

let test_forest_encoding_path () =
  let g = Graph.path_graph 10 in
  let parent = Traversal.tree_parent g 0 in
  let enc = Forest_encoding.encode g ~parent in
  match decode_forest g enc with
  | Some p -> Alcotest.(check (array int)) "decoded" parent p
  | None -> Alcotest.fail "well-formed encoding"

let prop_forest_encoding_roundtrip =
  QCheck.Test.make ~name:"forest encoding: decode inverts encode on planar graphs" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 5 80))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      let parent = Traversal.tree_parent g (seed mod n) in
      let enc = Forest_encoding.encode g ~parent in
      match decode_forest g enc with Some p -> p = parent | None -> false)

let prop_forest_encoding_constant_size =
  QCheck.Test.make ~name:"forest encoding: O(1) bits on planar graphs" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 5 150))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      let enc = Forest_encoding.encode g ~parent:(Traversal.tree_parent g 0) in
      let cbits = Forest_encoding.color_bits enc in
      (* <= 6 colors needs 3 bits; total width 2*3 + 2 = 8 *)
      Forest_encoding.width ~cbits <= 8)

let test_forest_encoding_serialization () =
  let l = { Forest_encoding.c1 = 5; c2 = 2; parity = true; root = false } in
  let bits = Forest_encoding.to_bits ~cbits:3 l in
  Alcotest.(check int) "width" (Forest_encoding.width ~cbits:3) (Bits.length bits);
  let l' = Forest_encoding.read ~cbits:3 (Bits.Reader.of_bits bits) in
  Alcotest.(check bool) "roundtrip" true (l = l')

let test_forest_encoding_children () =
  let g = Graph.star 6 in
  let parent = Array.init 6 (fun v -> if v = 0 then -1 else 0) in
  let enc = Forest_encoding.encode g ~parent in
  let nbrs = Array.to_list (Array.map (fun u -> (u, enc.(u))) (Graph.neighbors g 0)) in
  let kids = children_of ~own:enc.(0) ~nbrs in
  Alcotest.(check (list int)) "children" [ 1; 2; 3; 4; 5 ] (List.sort Int.compare kids)

let test_forest_encoding_multi_roots () =
  let g = Graph.create ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5); (2, 3) ] in
  let parent = [| -1; 0; 1; -1; 3; 4 |] in
  let enc = Forest_encoding.encode g ~parent in
  match decode_forest g enc with
  | Some p -> Alcotest.(check (array int)) "two roots decoded" parent p
  | None -> Alcotest.fail "well-formed"

(* ---- Edge labels (Lemma 2.4) ------------------------------------------- *)

let prop_edge_labels_roundtrip =
  QCheck.Test.make ~name:"edge labels: every edge's label readable at both ends" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 5 60))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      let el = Edge_labels.create g in
      let width = 7 in
      let value (u, v) = Bits.of_int ~width ((((u * 131) + v) * 7) mod 128) in
      let labels = Edge_labels.assign el ~width value in
      Graph.fold_edges
        (fun e acc -> acc && Bits.equal (Edge_labels.read_edge el ~width ~labels e) (value e))
        g true)

let test_edge_labels_constant_fields () =
  let g = Gen.planar ~n:120 5 in
  let el = Edge_labels.create g in
  Alcotest.(check bool) "<= 5 forests" true (Edge_labels.forests el <= 5);
  let labels = Edge_labels.assign el ~width:3 (fun _ -> Bits.of_string "101") in
  Array.iter
    (fun l -> Alcotest.(check int) "label width" (3 * Edge_labels.forests el) (Bits.length l))
    labels

let test_edge_labels_child_is_endpoint () =
  let g = Graph.cycle_graph 7 in
  let el = Edge_labels.create g in
  Graph.iter_edges
    (fun (u, v) ->
      let c = Edge_labels.child_of_edge el (u, v) in
      Alcotest.(check bool) "endpoint" true (c = u || c = v))
    g

(* ---- Spanning tree verification (Lemma 2.5) ----------------------------- *)

let test_st_completeness () =
  for seed = 0 to 9 do
    let g = Gen.planar ~n:60 seed in
    let parent = Traversal.tree_parent g 0 in
    let verdict, stats = Spanning_tree_verify.run ~seed g ~parent in
    Alcotest.(check bool) "accepts spanning tree" true verdict.Dip.accepted;
    Alcotest.(check int) "3 rounds" 3 stats.Dip.interaction_rounds
  done

let test_st_rejects_two_components () =
  let hits = ref 0 in
  for seed = 0 to 19 do
    let g = Graph.path_graph 40 in
    let parent = Array.init 40 (fun v -> if v = 0 || v = 20 then -1 else v - 1) in
    let verdict, _ = Spanning_tree_verify.run ~seed ~reps:8 g ~parent in
    if not verdict.Dip.accepted then incr hits
  done;
  Alcotest.(check bool) "rejects w.h.p." true (!hits >= 19)

let test_st_rejects_cycle () =
  (* parent pointers forming a cycle on part of the graph *)
  let hits = ref 0 in
  for seed = 0 to 19 do
    let g = Graph.create ~n:6 [ (0,1);(1,2);(2,3);(3,4);(4,5);(5,3) ] in
    let parent = [| -1; 0; 1; 4; 5; 3 |] in
    (* 3 -> 4 -> 5 -> 3 is a parent cycle *)
    let verdict, _ = Spanning_tree_verify.run ~seed ~reps:8 g ~parent in
    if not verdict.Dip.accepted then incr hits
  done;
  Alcotest.(check bool) "rejects w.h.p." true (!hits >= 18)

let test_st_soundness_amplification () =
  (* more repetitions = fewer escapes; with reps=1 some escapes expected *)
  let escapes reps =
    let e = ref 0 in
    for seed = 0 to 99 do
      let g = Graph.path_graph 30 in
      let parent = Array.init 30 (fun v -> if v = 0 || v = 15 then -1 else v - 1) in
      let verdict, _ = Spanning_tree_verify.run ~seed ~reps g ~parent in
      if verdict.Dip.accepted then incr e
    done;
    !e
  in
  let e1 = escapes 1 and e6 = escapes 6 in
  Alcotest.(check bool) "amplification helps" true (e6 <= e1 && e6 = 0)

(* ---- Multiset equality (Lemma 2.6) --------------------------------------- *)

let star_instance n s1 s2 k universe =
  let tree = Graph.star n in
  let parent = Array.init n (fun v -> if v = 0 then -1 else 0) in
  { Multiset_equality.tree; parent; s1; s2; k; universe }

let test_mseq_accepts_equal () =
  let n = 8 in
  let s1 = Array.init n (fun v -> [ v; (v * 2) mod 10 ]) in
  let s2 = Array.init n (fun v -> [ (v * 2) mod 10; v ]) in
  (* same multiset per node, different order *)
  let inst = star_instance n s1 s2 16 16 in
  let verdict, stats = Multiset_equality.run ~seed:1 inst in
  Alcotest.(check bool) "accepts" true verdict.Dip.accepted;
  Alcotest.(check int) "2 rounds" 2 stats.Dip.interaction_rounds

let test_mseq_accepts_redistributed () =
  (* equal as global multisets even though per-node sets differ *)
  let n = 4 in
  let s1 = [| [ 1; 2 ]; [ 3 ]; []; [ 4 ] |] in
  let s2 = [| []; [ 4; 3 ]; [ 2 ]; [ 1 ] |] in
  let inst = star_instance n s1 s2 8 8 in
  let verdict, _ = Multiset_equality.run ~seed:3 inst in
  Alcotest.(check bool) "accepts" true verdict.Dip.accepted

let test_mseq_rejects_unequal () =
  let hits = ref 0 in
  for seed = 0 to 29 do
    let n = 6 in
    let s1 = [| [ 1 ]; [ 2 ]; [ 3 ]; []; []; [] |] in
    let s2 = [| [ 1 ]; [ 2 ]; [ 5 ]; []; []; [] |] in
    let inst = star_instance n s1 s2 8 8 in
    let verdict, _ = Multiset_equality.run ~seed inst in
    if not verdict.Dip.accepted then incr hits
  done;
  Alcotest.(check bool) "rejects w.h.p." true (!hits >= 29)

let test_mseq_multiplicity_sensitivity () =
  let hits = ref 0 in
  for seed = 0 to 29 do
    let n = 4 in
    let s1 = [| [ 7; 7 ]; []; []; [] |] in
    let s2 = [| [ 7 ]; [ 7 ]; [ 7 ]; [] |] in
    (* multiset sizes 2 vs 3 *)
    let inst = star_instance n s1 s2 8 8 in
    let verdict, _ = Multiset_equality.run ~seed inst in
    if not verdict.Dip.accepted then incr hits
  done;
  Alcotest.(check bool) "multiplicities matter" true (!hits >= 29)

let prop_mseq_deep_tree =
  QCheck.Test.make ~name:"multiset equality: works over deep trees" ~count:30
    QCheck.(pair (int_bound 1000) (int_range 3 40))
    (fun (seed, n) ->
      let tree = Graph.path_graph n in
      let parent = Array.init n (fun v -> v - 1) in
      let rng = Rng.create seed in
      let s1 = Array.init n (fun _ -> List.init (Rng.int rng 3) (fun _ -> Rng.int rng 20)) in
      (* redistribute the same global multiset *)
      let all = List.concat (Array.to_list s1) in
      let s2 = Array.make n [] in
      List.iter (fun x ->
          let i = Rng.int rng n in
          s2.(i) <- x :: s2.(i))
        all;
      let inst = { Multiset_equality.tree; parent; s1; s2; k = max 4 (List.length all); universe = 32 } in
      let verdict, _ = Multiset_equality.run ~seed inst in
      verdict.Dip.accepted)

let () =
  Alcotest.run "dip"
    [
      ( "meter",
        [
          Alcotest.test_case "rounds and sizes" `Quick test_meter_rounds_and_sizes;
          Alcotest.test_case "merge parallel" `Quick test_merge_parallel;
          Alcotest.test_case "merge phase mismatch raises" `Quick test_merge_phase_mismatch;
          qtest prop_merge_assoc;
          qtest prop_merge_singleton_identity;
          qtest prop_merge_envelope;
          qtest prop_merge_components;
          Alcotest.test_case "all accept" `Quick test_all_accept;
        ] );
      ( "forest-encoding",
        [
          Alcotest.test_case "path" `Quick test_forest_encoding_path;
          Alcotest.test_case "serialization" `Quick test_forest_encoding_serialization;
          Alcotest.test_case "children" `Quick test_forest_encoding_children;
          Alcotest.test_case "multi roots" `Quick test_forest_encoding_multi_roots;
          qtest prop_forest_encoding_roundtrip;
          qtest prop_forest_encoding_constant_size;
        ] );
      ( "edge-labels",
        [
          qtest prop_edge_labels_roundtrip;
          Alcotest.test_case "constant fields" `Quick test_edge_labels_constant_fields;
          Alcotest.test_case "child endpoint" `Quick test_edge_labels_child_is_endpoint;
        ] );
      ( "spanning-tree-verify",
        [
          Alcotest.test_case "completeness" `Quick test_st_completeness;
          Alcotest.test_case "rejects two components" `Quick test_st_rejects_two_components;
          Alcotest.test_case "rejects parent cycle" `Quick test_st_rejects_cycle;
          Alcotest.test_case "amplification" `Quick test_st_soundness_amplification;
        ] );
      ( "multiset-equality",
        [
          Alcotest.test_case "accepts equal" `Quick test_mseq_accepts_equal;
          Alcotest.test_case "accepts redistributed" `Quick test_mseq_accepts_redistributed;
          Alcotest.test_case "rejects unequal" `Quick test_mseq_rejects_unequal;
          Alcotest.test_case "multiplicities" `Quick test_mseq_multiplicity_sensitivity;
          qtest prop_mseq_deep_tree;
        ] );
    ]
