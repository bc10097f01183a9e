(* Generators: every yes-generator produces members of its family, every
   no-generator provably produces non-members, all seeded-deterministic. *)

let qtest = QCheck_alcotest.to_alcotest

let seed_n = QCheck.(pair (int_bound 100000) (int_range 8 80))

let prop_lr_yes_valid =
  QCheck.Test.make ~name:"gen: lr_yes is a yes-instance" ~count:50 seed_n (fun (seed, n) ->
      let path, arcs = Gen.lr_yes ~n seed in
      let inst = { Lr_sorting.n; path; arcs } in
      Lr_sorting.validate_instance inst;
      Lr_sorting.is_yes_instance inst)

let prop_lr_no_invalid =
  QCheck.Test.make ~name:"gen: lr_no is a no-instance" ~count:50 seed_n (fun (seed, n) ->
      let path, arcs = Gen.lr_no ~n seed in
      let inst = { Lr_sorting.n; path; arcs } in
      Lr_sorting.validate_instance inst;
      not (Lr_sorting.is_yes_instance inst))

let prop_path_outerplanar_valid =
  QCheck.Test.make ~name:"gen: path_outerplanar verifies" ~count:50 seed_n (fun (seed, n) ->
      let g, w = Gen.path_outerplanar ~n seed in
      Outerplanar.check_path_witness g w && Outerplanar.is_outerplanar g)

let prop_path_crossing_invalid =
  QCheck.Test.make ~name:"gen: path_crossing is not outerplanar" ~count:50 seed_n (fun (seed, n) ->
      let g, _ = Gen.path_crossing ~n seed in
      not (Outerplanar.is_outerplanar g))

let prop_outerplanar_valid =
  QCheck.Test.make ~name:"gen: outerplanar blocks verify" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 1 8))
    (fun (seed, blocks) ->
      let g = Gen.outerplanar ~blocks seed in
      Traversal.is_connected g && Outerplanar.is_outerplanar g)

let prop_outerplanar_no_invalid =
  QCheck.Test.make ~name:"gen: outerplanar_no is not outerplanar" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 1 8))
    (fun (seed, blocks) -> not (Outerplanar.is_outerplanar (Gen.outerplanar_no ~blocks seed)))

let prop_biconnected_outerplanar =
  QCheck.Test.make ~name:"gen: biconnected_outerplanar is both" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 4 50))
    (fun (seed, n) ->
      let g = Gen.biconnected_outerplanar ~n seed in
      Biconnectivity.is_biconnected g && Outerplanar.is_outerplanar g)

let prop_planar_valid =
  QCheck.Test.make ~name:"gen: planar is planar and connected" ~count:40 seed_n (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      Traversal.is_connected g && Planar_test.is_planar g)

let prop_planar_bounded_degree =
  QCheck.Test.make ~name:"gen: bounded-degree planar has Delta <= 8" ~count:30 seed_n
    (fun (seed, n) ->
      let g = Gen.planar_bounded_degree ~n seed in
      Planar_test.is_planar g && Graph.max_degree g <= 8)

let prop_nonplanar_invalid =
  QCheck.Test.make ~name:"gen: nonplanar is non-planar but connected" ~count:30
    QCheck.(pair (int_bound 100000) (int_range 25 70))
    (fun (seed, n) ->
      let g = Gen.nonplanar ~n seed in
      Traversal.is_connected g && not (Planar_test.is_planar g))

let prop_nonplanar_k33_invalid =
  QCheck.Test.make ~name:"gen: nonplanar_k33 is non-planar but connected" ~count:20
    QCheck.(pair (int_bound 100000) (int_range 25 60))
    (fun (seed, n) ->
      let g = Fixtures.nonplanar_k33 ~n seed in
      Traversal.is_connected g && not (Planar_test.is_planar g))

let prop_maximal_outerplanar_gen =
  QCheck.Test.make ~name:"gen: maximal_outerplanar has m = 2n-3" ~count:20
    QCheck.(pair (int_bound 100000) (int_range 4 40))
    (fun (seed, n) ->
      let g = Gen.maximal_outerplanar ~n seed in
      Graph.m g = (2 * Graph.n g) - 3 && Outerplanar.is_outerplanar g)

let prop_embedding_valid =
  QCheck.Test.make ~name:"gen: embedding has genus 0" ~count:30 seed_n (fun (seed, n) ->
      match Gen.embedding (Gen.planar ~n seed) with
      | Some rot -> Rotation.is_planar_embedding rot
      | None -> false)

let prop_corrupted_invalid =
  QCheck.Test.make ~name:"gen: corrupted embedding has genus > 0" ~count:30 seed_n
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      match Gen.corrupted_embedding g seed with
      | Some rot -> not (Rotation.is_planar_embedding rot)
      | None -> true (* no corruptible node of degree >= 3 *))

let prop_sp_valid =
  QCheck.Test.make ~name:"gen: series_parallel recognized" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 4 60))
    (fun (seed, size) ->
      let tr, g = Gen.series_parallel ~size seed in
      Series_parallel.is_series_parallel g
      && Series_parallel.check_nested_ears g (Series_parallel.ears_of_sp tr))

let prop_sp_no_invalid =
  QCheck.Test.make ~name:"gen: series_parallel_no is not SP" ~count:30
    QCheck.(pair (int_bound 100000) (int_range 10 40))
    (fun (seed, size) ->
      match Gen.series_parallel_no ~size seed with
      | Some (g, _) -> not (Series_parallel.is_series_parallel g)
      | None -> true)

let prop_tw2_valid =
  QCheck.Test.make ~name:"gen: treewidth2 has tw <= 2" ~count:30
    QCheck.(pair (int_bound 100000) (int_range 1 8))
    (fun (seed, blocks) ->
      let g = Gen.treewidth2 ~blocks seed in
      Traversal.is_connected g && Series_parallel.is_treewidth_le_2 g)

let prop_tw2_no_invalid =
  QCheck.Test.make ~name:"gen: treewidth2_no has tw > 2" ~count:20
    QCheck.(pair (int_bound 100000) (int_range 2 6))
    (fun (seed, blocks) ->
      match Gen.treewidth2_no ~blocks seed with
      | Some g -> not (Series_parallel.is_treewidth_le_2 g)
      | None -> true)

(* The historical quadratic [Gen.planar] body, kept as the reference the
   near-linear generator must reproduce edge for edge. *)
let planar_reference ~n seed =
  let rng = Rng.create seed in
  let edges = ref [ (0, 1); (1, 2); (0, 2) ] in
  let face_list = ref [ (0, 1, 2) ] in
  for v = 3 to n - 1 do
    let k = Rng.int rng (List.length !face_list) in
    let a, b, c = List.nth !face_list k in
    edges := (v, a) :: (v, b) :: (v, c) :: !edges;
    face_list := (a, b, v) :: (a, c, v) :: (b, c, v) :: List.filteri (fun i _ -> i <> k) !face_list
  done;
  let g = Graph.create ~n (List.map (fun (a, b) -> Graph.normalize_edge a b) !edges) in
  let candidates = List.filter (fun _ -> Rng.int rng 4 = 0) (Graph.edges g) in
  List.fold_left
    (fun acc e ->
      let g' = Graph.remove_edges acc [ e ] in
      if Traversal.is_connected g' then g' else acc)
    g candidates

let same_as_reference ~n seed =
  List.equal
    (fun a b -> Graph.compare_edge a b = 0)
    (Graph.edges (Gen.planar ~n seed))
    (Graph.edges (planar_reference ~n seed))

let prop_planar_reference =
  QCheck.Test.make ~name:"gen: planar gives the reference edge list" ~count:150
    QCheck.(pair int (int_range 3 300))
    (fun (seed, n) -> same_as_reference ~n seed)

let test_planar_reference_600 () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "n = 600, seed %d" seed) true (same_as_reference ~n:600 seed))
    [ 0; 3; 977 ]

(* Words allocated per node by one [Gen.planar] call (exact; see Alloc). *)
let planar_words_per_node n = Alloc.words_of (fun () -> Gen.planar ~n 1) /. float_of_int n

let test_planar_linear_alloc () =
  let w256 = planar_words_per_node 256 and w2048 = planar_words_per_node 2048 in
  if w2048 > 1.25 *. w256 then
    Alcotest.failf "Gen.planar words per node: %.0f at n = 2048 > 1.25 x %.0f at n = 256" w2048 w256

let test_determinism () =
  let g1 = Gen.planar ~n:50 7 and g2 = Gen.planar ~n:50 7 in
  Alcotest.(check bool) "same graph" true (Graph.equal g1 g2);
  let g3 = Gen.planar ~n:50 8 in
  Alcotest.(check bool) "different seed differs" false (Graph.equal g1 g3)

let () =
  Alcotest.run "gen"
    [
      ( "lr",
        [ qtest prop_lr_yes_valid; qtest prop_lr_no_invalid ] );
      ( "outerplanar",
        [
          qtest prop_path_outerplanar_valid;
          qtest prop_path_crossing_invalid;
          qtest prop_outerplanar_valid;
          qtest prop_outerplanar_no_invalid;
          qtest prop_biconnected_outerplanar;
        ] );
      ( "planar",
        [
          qtest prop_planar_valid;
          qtest prop_planar_bounded_degree;
          qtest prop_nonplanar_invalid;
          qtest prop_nonplanar_k33_invalid;
          qtest prop_maximal_outerplanar_gen;
          qtest prop_embedding_valid;
          qtest prop_corrupted_invalid;
          qtest prop_planar_reference;
          Alcotest.test_case "planar reference at n = 600" `Quick test_planar_reference_600;
          Alcotest.test_case "planar allocation is linear" `Quick test_planar_linear_alloc;
        ] );
      ( "sp-tw",
        [ qtest prop_sp_valid; qtest prop_sp_no_invalid; qtest prop_tw2_valid; qtest prop_tw2_no_invalid ] );
      ("misc", [ Alcotest.test_case "determinism" `Quick test_determinism ]);
    ]
