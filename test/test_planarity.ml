(* Planar embedding (Theorem 1.4) and planarity (Theorem 1.5). *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- the h(G, T, rho) reduction (Lemma 7.3) -------------------------------- *)

let nested_of inst =
  let g = inst.Planar_embedding.graph in
  let red = Planar_embedding.reduce inst ~root:0 ~parent:(Traversal.tree_parent g 0) in
  Outerplanar.check_path_witness red.Planar_embedding.h (List.init (Graph.n red.Planar_embedding.h) Fun.id)

let test_lemma_7_3_k4_exhaustive () =
  (* every rotation system of K4: planar <=> nested *)
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
  List.iter
    (fun r0 ->
      List.iter
        (fun r1 ->
          List.iter
            (fun r2 ->
              List.iter
                (fun r3 ->
                  let rot = Rotation.create g [| r0; r1; r2; r3 |] in
                  let inst = { Planar_embedding.graph = g; rot } in
                  Alcotest.(check bool) "iff" (Planar_embedding.is_yes_instance inst) (nested_of inst))
                (rots_of 3))
            (rots_of 2))
        (rots_of 1))
    (rots_of 0)

let prop_lemma_7_3_valid =
  QCheck.Test.make ~name:"lemma 7.3: valid embeddings nest" ~count:30
    QCheck.(pair (int_bound 100000) (int_range 8 60))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      match Gen.embedding g with
      | Some rot -> nested_of { Planar_embedding.graph = g; rot }
      | None -> false)

let prop_lemma_7_3_invalid =
  QCheck.Test.make ~name:"lemma 7.3: corrupted embeddings do not nest" ~count:30
    QCheck.(pair (int_bound 100000) (int_range 8 60))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      match Gen.corrupted_embedding g seed with
      | Some rot ->
          let inst = { Planar_embedding.graph = g; rot } in
          QCheck.assume (not (Planar_embedding.is_yes_instance inst));
          not (nested_of inst)
      | None -> QCheck.assume_fail ())

let test_reduce_structure () =
  let g = Graph.grid 3 3 in
  let rot = Option.get (Gen.embedding g) in
  let red =
    Planar_embedding.reduce { Planar_embedding.graph = g; rot } ~root:0
      ~parent:(Traversal.tree_parent g 0)
  in
  (* corners: chi(v)+1 per node = n + (n-1); darts: 2 per non-tree edge *)
  let n = Graph.n g and m = Graph.m g in
  Alcotest.(check int) "h size" ((2 * n) - 1 + (2 * (m - (n - 1)))) (Graph.n red.Planar_embedding.h);
  Array.iter (fun o -> Alcotest.(check bool) "owner valid" true (o >= 0 && o < n)) red.Planar_embedding.copy_owner

(* ---- planar-embedding protocol ----------------------------------------------- *)

let test_pe_completeness () =
  for seed = 0 to 9 do
    let g = Gen.planar ~n:60 seed in
    let rot = Option.get (Gen.embedding g) in
    let r = Planar_embedding.run ~seed ~prover:Planar_embedding.Honest { Planar_embedding.graph = g; rot } in
    Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true r.Planar_embedding.verdict.Dip.accepted
  done

let test_pe_rounds () =
  let g = Graph.grid 5 5 in
  let rot = Option.get (Gen.embedding g) in
  let r = Planar_embedding.run ~prover:Planar_embedding.Honest { Planar_embedding.graph = g; rot } in
  Alcotest.(check int) "5 rounds" 5 r.Planar_embedding.stats.Dip.interaction_rounds

let test_pe_soundness () =
  let rej = ref 0 and tot = ref 0 in
  for seed = 0 to 19 do
    let g = Gen.planar ~n:50 seed in
    match Gen.corrupted_embedding g (seed + 1) with
    | Some rot ->
        incr tot;
        let r =
          Planar_embedding.run ~seed ~prover:Planar_embedding.Crossing_sweep { Planar_embedding.graph = g; rot }
        in
        if not r.Planar_embedding.verdict.Dip.accepted then incr rej
    | None -> ()
  done;
  Alcotest.(check bool) "corrupted rejected" true (!tot >= 15 && !rej >= !tot - 1)

let test_pe_flip_adversary () =
  let rej = ref 0 and tot = ref 0 in
  for seed = 0 to 14 do
    let g = Gen.planar ~n:50 seed in
    match Gen.corrupted_embedding g (seed + 21) with
    | Some rot ->
        incr tot;
        let r =
          Planar_embedding.run ~seed ~prover:Planar_embedding.Flip_orientation { Planar_embedding.graph = g; rot }
        in
        if not r.Planar_embedding.verdict.Dip.accepted then incr rej
    | None -> ()
  done;
  Alcotest.(check bool) "flip rejected" true (!rej >= !tot - 1)

let test_pe_grid_torus_rotation () =
  (* a "torus-like" rotation of the grid: sorted neighbor order is usually
     not planar for inner nodes *)
  let g = Graph.grid 4 4 in
  let rot = Rotation.default g in
  if not (Rotation.is_planar_embedding rot) then begin
    let rej = ref 0 in
    for seed = 0 to 9 do
      let r = Planar_embedding.run ~seed ~prover:Planar_embedding.Crossing_sweep { Planar_embedding.graph = g; rot } in
      if not r.Planar_embedding.verdict.Dip.accepted then incr rej
    done;
    Alcotest.(check bool) "default grid rotation rejected" true (!rej >= 9)
  end

(* ---- planarity protocol -------------------------------------------------------- *)

let test_pl_completeness () =
  for seed = 0 to 9 do
    let g = Gen.planar ~n:60 seed in
    let r = Planarity.run ~seed ~prover:Planarity.Honest { Planarity.graph = g } in
    Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true r.Planarity.verdict.Dip.accepted
  done

let test_pl_bounded_degree () =
  for seed = 0 to 4 do
    let g = Gen.planar_bounded_degree ~n:64 seed in
    let r = Planarity.run ~seed ~prover:Planarity.Honest { Planarity.graph = g } in
    Alcotest.(check bool) "bounded degree" true r.Planarity.verdict.Dip.accepted
  done

let test_pl_soundness_k5 () =
  let rej = ref 0 in
  for seed = 0 to 19 do
    let g = Graph.subdivide (Graph.complete 5) ~times:1 in
    let r = Planarity.run ~seed ~prover:Planarity.Best_rotation { Planarity.graph = g } in
    if not r.Planarity.verdict.Dip.accepted then incr rej
  done;
  Alcotest.(check bool) "K5 subdivision rejected" true (!rej >= 19)

let test_pl_soundness_spliced () =
  let rej = ref 0 in
  for seed = 0 to 14 do
    let g = Gen.nonplanar ~n:60 seed in
    let r = Planarity.run ~seed ~prover:Planarity.Best_rotation { Planarity.graph = g } in
    if not r.Planarity.verdict.Dip.accepted then incr rej
  done;
  Alcotest.(check bool) "spliced K5 rejected" true (!rej >= 14)

let test_pl_delta_dependence () =
  (* the log Delta term: high-degree planar graphs pay more bits *)
  let proof g =
    (Planarity.run ~seed:1 ~prover:Planarity.Honest { Planarity.graph = g }).Planarity.stats.Dip.proof_size_bits
  in
  let low = proof (Gen.planar_bounded_degree ~n:64 1) in
  let high = proof (Graph.star 64) in
  ignore (low, high);
  (* a star has Delta = n-1; its rho values need log n bits *)
  Alcotest.(check bool) "delta term visible" true (high > 0 && low > 0)

let test_pl_rounds () =
  let r = Planarity.run ~prover:Planarity.Honest { Planarity.graph = Graph.grid 5 5 } in
  Alcotest.(check int) "5 rounds" 5 r.Planarity.stats.Dip.interaction_rounds

let prop_pl_completeness =
  QCheck.Test.make ~name:"planarity: perfect completeness" ~count:20
    QCheck.(pair (int_bound 100000) (int_range 10 80))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      (Planarity.run ~seed ~prover:Planarity.Honest { Planarity.graph = g }).Planarity.verdict.Dip.accepted)

let prop_pl_soundness =
  QCheck.Test.make ~name:"planarity: non-planar rejected w.h.p." ~count:15
    QCheck.(pair (int_bound 100000) (int_range 25 60))
    (fun (seed, n) ->
      let g = Gen.nonplanar ~n seed in
      let rejected = ref 0 in
      for s = 0 to 2 do
        let r = Planarity.run ~seed:((seed * 3) + s) ~prover:Planarity.Best_rotation { Planarity.graph = g } in
        if not r.Planarity.verdict.Dip.accepted then incr rejected
      done;
      !rejected >= 1)

let () =
  Alcotest.run "planarity"
    [
      ( "lemma-7.3",
        [
          Alcotest.test_case "K4 exhaustive iff" `Quick test_lemma_7_3_k4_exhaustive;
          Alcotest.test_case "h structure" `Quick test_reduce_structure;
          qtest prop_lemma_7_3_valid;
          qtest prop_lemma_7_3_invalid;
        ] );
      ( "planar-embedding (Thm 1.4)",
        [
          Alcotest.test_case "completeness" `Quick test_pe_completeness;
          Alcotest.test_case "rounds" `Quick test_pe_rounds;
          Alcotest.test_case "soundness" `Quick test_pe_soundness;
          Alcotest.test_case "flip adversary" `Quick test_pe_flip_adversary;
          Alcotest.test_case "grid default rotation" `Quick test_pe_grid_torus_rotation;
        ] );
      ( "planarity (Thm 1.5)",
        [
          Alcotest.test_case "completeness" `Quick test_pl_completeness;
          Alcotest.test_case "bounded degree" `Quick test_pl_bounded_degree;
          Alcotest.test_case "K5 subdivision" `Quick test_pl_soundness_k5;
          Alcotest.test_case "spliced K5" `Quick test_pl_soundness_spliced;
          Alcotest.test_case "delta dependence" `Quick test_pl_delta_dependence;
          Alcotest.test_case "rounds" `Quick test_pl_rounds;
          qtest prop_pl_completeness;
          qtest prop_pl_soundness;
        ] );
    ]
