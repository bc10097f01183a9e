(* Recognition algorithms: rotation systems / face tracing, planarity,
   outerplanarity, series-parallel, treewidth <= 2. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Rotation / Euler ------------------------------------------------ *)

let test_faces_triangle () =
  let g = Graph.cycle_graph 3 in
  let rot = Rotation.default g in
  Alcotest.(check int) "two faces" 2 (Rotation.face_count rot);
  Alcotest.(check bool) "planar" true (Rotation.is_planar_embedding rot)

let test_faces_count_dart_cover () =
  let g = Graph.grid 3 3 in
  let rot = Option.get (Planar_test.embed g) in
  let total_darts = List.fold_left (fun acc f -> acc + List.length f) 0 (Rotation.faces rot) in
  Alcotest.(check int) "every dart once" (2 * Graph.m g) total_darts

(* An isolated node has no darts but sits in a face of its own, so Euler's
   formula holds for [embed]'s output on graphs that have one. *)
let test_isolated_nodes () =
  let one = Option.get (Planar_test.embed (Graph.create ~n:1 [])) in
  Alcotest.(check int) "one node: one face" 1 (Rotation.face_count one);
  Alcotest.(check int) "one node: genus 0" 0 (Rotation.euler_genus one);
  Alcotest.(check bool) "one node: planar" true (Rotation.is_planar_embedding one);
  let g, _ = Graph.union_disjoint [ Graph.complete 4; Graph.create ~n:1 [] ] in
  let rot = Option.get (Planar_test.embed g) in
  Alcotest.(check int) "K4 + node: 4 + 1 faces" 5 (Rotation.face_count rot);
  Alcotest.(check int) "K4 + node: genus 0" 0 (Rotation.euler_genus rot);
  Alcotest.(check bool) "K4 + node: planar" true (Rotation.is_planar_embedding rot)

(* The face walk as it was written before the dart table: each successor
   found by a linear scan of the rotation row, O(sum of deg^2).  The
   reference for [Rotation.faces]. *)
let reference_faces (t : Rotation.t) =
  let n = Graph.n t.graph in
  let index_of a x =
    let rec go i = if a.(i) = x then i else go (i + 1) in
    go 0
  in
  let offset = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offset.(v + 1) <- offset.(v) + Array.length t.rot.(v)
  done;
  let visited = Array.make offset.(n) false in
  let out = ref [] in
  for u = 0 to n - 1 do
    Array.iteri
      (fun j _ ->
        if not visited.(offset.(u) + j) then begin
          let walk = ref [] and cu = ref u and cj = ref j and continue = ref true in
          while !continue do
            visited.(offset.(!cu) + !cj) <- true;
            let v = t.rot.(!cu).(!cj) in
            walk := (!cu, v) :: !walk;
            let r = t.rot.(v) in
            cj := (index_of r !cu + 1) mod Array.length r;
            cu := v;
            if visited.(offset.(!cu) + !cj) then continue := false
          done;
          out := List.rev !walk :: !out
        end)
      t.rot.(u)
  done;
  List.rev !out

(* Random graphs (possibly disconnected, with isolated nodes) under random
   rotations: the same walks, in the same order, as the reference. *)
let prop_faces_reference =
  QCheck.Test.make ~name:"rotation: faces equals the scanning reference" ~count:200
    QCheck.(pair (int_bound 100000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let edges =
        List.filter_map
          (fun _ ->
            let u = Rng.int rng n and v = Rng.int rng n in
            if u = v then None else Some (u, v))
          (List.init (Rng.int rng ((3 * n) + 1)) Fun.id)
      in
      let g = Graph.create ~n edges in
      let rot = Rotation.default g in
      Array.iter (Rng.shuffle rng) rot.Rotation.rot;
      Rotation.faces rot = reference_faces rot)

(* A star's rotation has one face however it is ordered; the scan took
   quadratic time in the centre's degree (6.9 s at 40 000 leaves). *)
let test_star_one_face () =
  let rot = Rotation.default (Graph.star 100_001) in
  Alcotest.(check int) "100 000-leaf star: one face" 1 (Rotation.face_count rot)

let test_k4_embeddings () =
  (* K4 has exactly 2 of 16 parent-fixed rotation systems planar *)
  let g = Graph.complete 4 in
  let rots_of v =
    match Array.to_list (Graph.neighbors g v) with
    | x :: rest ->
        let rec perms = function
          | [] -> [ [] ]
          | l -> List.concat_map (fun e -> List.map (fun p -> e :: p) (perms (List.filter (( <> ) e) l))) l
        in
        List.map (fun p -> Array.of_list (x :: p)) (perms rest)
    | [] -> [ [||] ]
  in
  let count = ref 0 in
  List.iter
    (fun r0 ->
      List.iter
        (fun r1 ->
          List.iter
            (fun r2 ->
              List.iter
                (fun r3 ->
                  if Rotation.is_planar_embedding (Rotation.create g [| r0; r1; r2; r3 |]) then incr count)
                (rots_of 3))
            (rots_of 2))
        (rots_of 1))
    (rots_of 0);
  Alcotest.(check int) "2 planar rotations" 2 !count

let test_rotation_validation () =
  let g = Graph.path_graph 3 in
  Alcotest.check_raises "bad rotation"
    (Invalid_argument "Rotation.create: rot.(v) not a permutation of neighbors") (fun () ->
      ignore (Rotation.create g [| [| 1 |]; [| 0; 0 |]; [| 1 |] |]))

let test_corrupt_swap_invalid () =
  let g = Graph.grid 4 4 in
  let rot = Option.get (Planar_test.embed g) in
  match Rotation.corrupt_swap rot (Rng.create 3) with
  | Some bad -> Alcotest.(check bool) "nonzero genus" false (Rotation.is_planar_embedding bad)
  | None -> Alcotest.fail "expected a corruption"

(* ---- Planarity -------------------------------------------------------- *)

let test_planarity_known () =
  Alcotest.(check bool) "K4" true (Planar_test.is_planar (Graph.complete 4));
  Alcotest.(check bool) "K5" false (Planar_test.is_planar (Graph.complete 5));
  Alcotest.(check bool) "K33" false (Planar_test.is_planar (Graph.complete_bipartite 3 3));
  Alcotest.(check bool) "K5 subdivided" false (Planar_test.is_planar (Graph.subdivide (Graph.complete 5) ~times:3));
  Alcotest.(check bool) "K33 subdivided" false (Planar_test.is_planar (Graph.subdivide (Graph.complete_bipartite 3 3) ~times:2));
  Alcotest.(check bool) "grid" true (Planar_test.is_planar (Graph.grid 7 9));
  Alcotest.(check bool) "tree" true (Planar_test.is_planar (Graph.star 30));
  Alcotest.(check bool) "petersen" false
    (Planar_test.is_planar
       (Graph.create ~n:10
          [ (0,1);(1,2);(2,3);(3,4);(4,0);(5,7);(7,9);(9,6);(6,8);(8,5);(0,5);(1,6);(2,7);(3,8);(4,9) ]))

let test_planarity_disconnected () =
  let g, _ = Graph.union_disjoint [ Graph.complete 4; Graph.cycle_graph 5 ] in
  Alcotest.(check bool) "disconnected planar" true (Planar_test.is_planar g);
  let g2, _ = Graph.union_disjoint [ Graph.complete 5; Graph.cycle_graph 5 ] in
  Alcotest.(check bool) "disconnected nonplanar" false (Planar_test.is_planar g2)

let test_embed_valid () =
  List.iter
    (fun g ->
      match Planar_test.embed g with
      | Some rot -> Alcotest.(check bool) "genus 0" true (Rotation.is_planar_embedding rot)
      | None -> Alcotest.fail "planar graph must embed")
    [ Graph.complete 4; Graph.grid 5 5; Graph.cycle_graph 9; Graph.star 12; Gen.planar ~n:100 3 ]

let prop_generated_planar_embeds =
  QCheck.Test.make ~name:"planarity: generated planar graphs embed with genus 0" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 10 80))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      match Planar_test.embed g with
      | Some rot -> Rotation.is_planar_embedding rot
      | None -> false)

let prop_nonplanar_detected =
  QCheck.Test.make ~name:"planarity: spliced K5 detected" ~count:20
    QCheck.(pair (int_bound 10000) (int_range 25 60))
    (fun (seed, n) -> not (Planar_test.is_planar (Gen.nonplanar ~n seed)))

let prop_euler_bound =
  QCheck.Test.make ~name:"planarity: embedded graphs satisfy m <= 3n - 6" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 10 60))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      Graph.m g <= (3 * Graph.n g) - 6 || Graph.n g < 3)

let test_embed_linear_alloc () =
  let per_node n =
    let g = Gen.planar ~n 3 in
    Alloc.words_of (fun () -> Planar_test.embed g) /. float_of_int n
  in
  let w256 = per_node 256 and w2048 = per_node 2048 in
  if w2048 > 1.25 *. w256 then
    Alcotest.failf "embed words per node: %.0f at n = 2048 > 1.25 x %.0f at n = 256" w2048 w256

(* The embedding family's instance build at n = 2048 (generator plus
   embedder) stays under 51 Mwords, 1 % of what a cubic embedder took. *)
let test_embedding_family_alloc () =
  let w = Alloc.words_of (fun () -> Family.planar_embedding.Family.build ~n:2048 ~gseed:3) in
  if w > 51e6 then Alcotest.failf "Family.planar_embedding.build at n = 2048: %.1f Mwords > 51" (w /. 1e6)

(* ---- Outerplanarity --------------------------------------------------- *)

let test_outerplanar_known () =
  Alcotest.(check bool) "cycle" true (Outerplanar.is_outerplanar (Graph.cycle_graph 9));
  Alcotest.(check bool) "path" true (Outerplanar.is_outerplanar (Graph.path_graph 9));
  Alcotest.(check bool) "K4" false (Outerplanar.is_outerplanar (Graph.complete 4));
  Alcotest.(check bool) "K23" false (Outerplanar.is_outerplanar (Graph.complete_bipartite 2 3));
  Alcotest.(check bool) "grid 2xk" true (Outerplanar.is_outerplanar (Graph.grid 2 2));
  Alcotest.(check bool) "grid 3x3" false (Outerplanar.is_outerplanar (Graph.grid 3 3))

let test_ham_cycle_extraction () =
  for seed = 0 to 9 do
    let g = Gen.biconnected_outerplanar ~n:20 seed in
    match Outerplanar.hamiltonian_cycle g with
    | Some cyc ->
        Alcotest.(check int) "covers all" 20 (List.length (List.sort_uniq Int.compare cyc));
        let arr = Array.of_list cyc in
        let k = Array.length arr in
        for i = 0 to k - 1 do
          Alcotest.(check bool) "cycle edge" true (Graph.mem_edge g arr.(i) arr.((i + 1) mod k))
        done
    | None -> Alcotest.fail "biconnected outerplanar has a Hamiltonian cycle"
  done

let test_ham_cycle_none_for_k4 () =
  Alcotest.(check bool) "K4 has no outerplanar ham cycle" true
    (Outerplanar.hamiltonian_cycle (Graph.complete 4) = None)

let test_check_path_witness () =
  let g = Graph.create ~n:6 [ (0,1);(1,2);(2,3);(3,4);(4,5);(0,3);(0,5) ] in
  Alcotest.(check bool) "nested ok" true (Outerplanar.check_path_witness g [0;1;2;3;4;5]);
  let bad = Graph.add_edges g [ (1, 4) ] in
  Alcotest.(check bool) "crossing detected" false (Outerplanar.check_path_witness bad [0;1;2;3;4;5]);
  Alcotest.(check bool) "not a ham path" false (Outerplanar.check_path_witness g [0;1;2;3;5;4])

let test_check_witness_shared_endpoints () =
  (* edges sharing endpoints never cross *)
  let g = Graph.create ~n:5 [ (0,1);(1,2);(2,3);(3,4);(0,2);(0,3);(0,4) ] in
  Alcotest.(check bool) "fan nests" true (Outerplanar.check_path_witness g [0;1;2;3;4])

let test_triangulate_known () =
  (* the 5-cycle triangulates to 2n-3 = 7 edges *)
  match Outerplanar.triangulate (Graph.cycle_graph 5) with
  | Some t ->
      Alcotest.(check int) "edges" 7 (Graph.m t);
      Alcotest.(check bool) "outerplanar" true (Outerplanar.is_outerplanar t)
  | None -> Alcotest.fail "cycle triangulates"

let test_triangulate_rejects_k4 () =
  Alcotest.(check bool) "K4" true (Outerplanar.triangulate (Graph.complete 4) = None);
  Alcotest.(check bool) "path" true (Outerplanar.triangulate (Graph.path_graph 5) = None)

let prop_triangulate_maximal =
  QCheck.Test.make ~name:"outerplanar: triangulate reaches m = 2n - 3 and stays outerplanar"
    ~count:30
    QCheck.(pair (int_bound 10000) (int_range 4 40))
    (fun (seed, n) ->
      let g = Gen.biconnected_outerplanar ~n seed in
      match Outerplanar.triangulate g with
      | Some t ->
          Graph.m t = (2 * Graph.n t) - 3
          && Outerplanar.is_outerplanar t
          && Biconnectivity.is_biconnected t
          && List.for_all (fun e -> List.mem e (Graph.edges t)) (Graph.edges g)
      | None -> false)

let prop_maximal_outerplanar_path_witness =
  QCheck.Test.make ~name:"outerplanar: maximal graphs still admit nesting paths" ~count:20
    QCheck.(pair (int_bound 10000) (int_range 4 30))
    (fun (seed, n) ->
      let g = Gen.maximal_outerplanar ~n seed in
      match Outerplanar.path_witness g with
      | Some w -> Outerplanar.check_path_witness g w
      | None -> false)

let prop_path_witness_valid =
  QCheck.Test.make ~name:"outerplanar: generated witnesses verify" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 5 80))
    (fun (seed, n) ->
      let g, w = Gen.path_outerplanar ~n seed in
      Outerplanar.check_path_witness g w)

let prop_find_path_witness =
  QCheck.Test.make ~name:"outerplanar: path_witness found on biconnected blocks" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 5 40))
    (fun (seed, n) ->
      let g = Gen.biconnected_outerplanar ~n seed in
      match Outerplanar.path_witness g with
      | Some p -> Outerplanar.check_path_witness g p
      | None -> false)

let prop_crossing_instances_rejected =
  QCheck.Test.make ~name:"outerplanar: K4-triple instances are not outerplanar" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 10 60))
    (fun (seed, n) ->
      let g, _ = Gen.path_crossing ~n seed in
      not (Outerplanar.is_outerplanar g))

(* ---- Series-parallel / treewidth -------------------------------------- *)

let test_sp_known () =
  Alcotest.(check bool) "K4" false (Series_parallel.is_series_parallel (Graph.complete 4));
  Alcotest.(check bool) "path" true (Series_parallel.is_series_parallel (Graph.path_graph 6));
  Alcotest.(check bool) "cycle" true (Series_parallel.is_series_parallel (Graph.cycle_graph 6));
  Alcotest.(check bool) "theta" true
    (Series_parallel.is_series_parallel (Graph.create ~n:4 [ (0,1);(1,2);(2,3);(0,3);(1,3) ]));
  Alcotest.(check bool) "K4 subdivided" false
    (Series_parallel.is_series_parallel (Graph.subdivide (Graph.complete 4) ~times:1))

let test_tw2_known () =
  Alcotest.(check bool) "K4" false (Series_parallel.is_treewidth_le_2 (Graph.complete 4));
  Alcotest.(check bool) "tree" true (Series_parallel.is_treewidth_le_2 (Graph.star 10));
  Alcotest.(check bool) "cycle" true (Series_parallel.is_treewidth_le_2 (Graph.cycle_graph 10));
  Alcotest.(check bool) "grid3" false (Series_parallel.is_treewidth_le_2 (Graph.grid 3 3));
  Alcotest.(check bool) "K4 subdivided" false
    (Series_parallel.is_treewidth_le_2 (Graph.subdivide (Graph.complete 4) ~times:2))

let test_sp_decompose_terminals () =
  let g = Graph.create ~n:4 [ (0,1);(1,2);(2,3);(0,3);(1,3) ] in
  match Series_parallel.decompose g with
  | Some t ->
      let s, e = Series_parallel.terminals t in
      Alcotest.(check bool) "terminals are nodes" true (s >= 0 && s < 4 && e >= 0 && e < 4 && s <> e)
  | None -> Alcotest.fail "theta graph is SP"

let prop_sp_recognition_roundtrip =
  QCheck.Test.make ~name:"sp: generated SP graphs are recognized" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 4 60))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      Series_parallel.is_series_parallel g)

let prop_sp_graph_of_decompose =
  QCheck.Test.make ~name:"sp: decompose reproduces the edge set" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 4 40))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      match Series_parallel.decompose g with
      | Some t -> Graph.equal g (Series_parallel.graph_of_sp ~n:(Graph.n g) t)
      | None -> false)

let prop_ears_valid =
  QCheck.Test.make ~name:"sp: ears_of_sp passes check_nested_ears" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 4 60))
    (fun (seed, size) ->
      let tr, g = Gen.series_parallel ~size seed in
      Series_parallel.check_nested_ears g (Series_parallel.ears_of_sp tr))

let prop_ears_from_recognition =
  QCheck.Test.make ~name:"sp: ears from decompose pass the checker" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 4 40))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      match Series_parallel.decompose g with
      | Some t -> Series_parallel.check_nested_ears g (Series_parallel.ears_of_sp t)
      | None -> false)

let prop_sp_implies_tw2 =
  QCheck.Test.make ~name:"sp: series-parallel implies treewidth <= 2" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 4 50))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      Series_parallel.is_treewidth_le_2 g)

let prop_sp_implies_planar =
  QCheck.Test.make ~name:"sp: series-parallel implies planar" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 4 50))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      Planar_test.is_planar g)

let test_check_nested_ears_rejects () =
  (* ear with interior node reused *)
  let g = Graph.create ~n:4 [ (0,1);(1,2);(2,3);(0,3);(0,2) ] in
  Alcotest.(check bool) "bad decomposition rejected" false
    (Series_parallel.check_nested_ears g [ [0;1;2]; [0;1;3] ]);
  (* edges not partitioned *)
  Alcotest.(check bool) "missing edges rejected" false
    (Series_parallel.check_nested_ears g [ [0;1;2;3] ])

let () =
  Alcotest.run "recognition"
    [
      ( "rotation",
        [
          Alcotest.test_case "triangle faces" `Quick test_faces_triangle;
          Alcotest.test_case "dart cover" `Quick test_faces_count_dart_cover;
          Alcotest.test_case "isolated nodes" `Quick test_isolated_nodes;
          Alcotest.test_case "K4 embeddings" `Quick test_k4_embeddings;
          Alcotest.test_case "validation" `Quick test_rotation_validation;
          Alcotest.test_case "corrupt swap" `Quick test_corrupt_swap_invalid;
          qtest prop_faces_reference;
          Alcotest.test_case "100 000-leaf star" `Quick test_star_one_face;
        ] );
      ( "planarity",
        [
          Alcotest.test_case "known graphs" `Quick test_planarity_known;
          Alcotest.test_case "disconnected" `Quick test_planarity_disconnected;
          Alcotest.test_case "embeddings valid" `Quick test_embed_valid;
          qtest prop_generated_planar_embeds;
          qtest prop_nonplanar_detected;
          qtest prop_euler_bound;
          Alcotest.test_case "embed allocation is linear" `Quick test_embed_linear_alloc;
          Alcotest.test_case "embedding family build allocation" `Quick test_embedding_family_alloc;
        ] );
      ( "outerplanarity",
        [
          Alcotest.test_case "known graphs" `Quick test_outerplanar_known;
          Alcotest.test_case "ham cycle extraction" `Quick test_ham_cycle_extraction;
          Alcotest.test_case "K4 no cycle" `Quick test_ham_cycle_none_for_k4;
          Alcotest.test_case "path witness checker" `Quick test_check_path_witness;
          Alcotest.test_case "shared endpoints" `Quick test_check_witness_shared_endpoints;
          Alcotest.test_case "triangulate cycle" `Quick test_triangulate_known;
          Alcotest.test_case "triangulate rejects" `Quick test_triangulate_rejects_k4;
          qtest prop_triangulate_maximal;
          qtest prop_maximal_outerplanar_path_witness;
          qtest prop_path_witness_valid;
          qtest prop_find_path_witness;
          qtest prop_crossing_instances_rejected;
        ] );
      ( "series-parallel",
        [
          Alcotest.test_case "known graphs" `Quick test_sp_known;
          Alcotest.test_case "treewidth known" `Quick test_tw2_known;
          Alcotest.test_case "terminals" `Quick test_sp_decompose_terminals;
          Alcotest.test_case "bad ears rejected" `Quick test_check_nested_ears_rejects;
          qtest prop_sp_recognition_roundtrip;
          qtest prop_sp_graph_of_decompose;
          qtest prop_ears_valid;
          qtest prop_ears_from_recognition;
          qtest prop_sp_implies_tw2;
          qtest prop_sp_implies_planar;
        ] );
    ]
