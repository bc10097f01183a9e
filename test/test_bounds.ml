(* The declared-bounds registry (lib/protocols/bounds.ml) and the
   runtime budget checker (Dip.check_budget): registry self-consistency,
   the checker's four violation classes, and — the claim that matters —
   every protocol's honest run fits its declared theorem row. *)

let pp_violation = Format.asprintf "%a" Dip.pp_budget_violation

let check_within name ~id ~n ~delta (stats : Dip.stats) =
  match Bounds.find id with
  | None -> Alcotest.fail ("no registry row for " ^ id)
  | Some row ->
      let b = Bounds.budget row ~n ~delta in
      Alcotest.(check (list string))
        (name ^ ": honest run within declared budget")
        []
        (List.map pp_violation (Dip.check_budget b stats))

(* ---- registry shape --------------------------------------------------- *)

let test_registry () =
  Alcotest.(check bool) "registry is non-empty" true (List.length Bounds.rows >= 10);
  List.iter
    (fun (r : Bounds.row) ->
      Alcotest.(check int)
        (r.Bounds.id ^ ": rounds equal schedule length")
        r.Bounds.rounds
        (List.length r.Bounds.schedule))
    Bounds.rows;
  let ids = List.map (fun (r : Bounds.row) -> r.Bounds.id) Bounds.rows in
  Alcotest.(check int) "ids are unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  Alcotest.(check bool) "find hits" true
    (match Bounds.find "lr_sorting" with Some _ -> true | None -> false);
  Alcotest.(check bool) "find misses cleanly" true
    (match Bounds.find "no_such_protocol" with None -> true | Some _ -> false);
  (* every five-round theorem row claims the paper's P-V-P-V-P *)
  List.iter
    (fun (r : Bounds.row) ->
      if r.Bounds.rounds = 5 then
        Alcotest.(check string)
          (r.Bounds.id ^ ": five-round schedule is P-V-P-V-P")
          "P-V-P-V-P"
          (Format.asprintf "%a" Dip.pp_phases r.Bounds.schedule))
    Bounds.rows

(* ---- checker mechanics ------------------------------------------------ *)

let stats_of ~phases ~proof =
  {
    Dip.interaction_rounds = List.length phases;
    proof_size_bits = proof;
    max_node_total_bits = proof;
    total_prover_bits = proof;
    total_verifier_bits = 0;
    phases;
    per_phase = List.map (fun ph -> (ph, proof)) phases;
  }

let test_checker () =
  let p = Dip.Prover_phase and v = Dip.Verifier_phase in
  let b =
    {
      Dip.budget_rounds = 5;
      budget_schedule = [ p; v; p; v; p ];
      budget_proof_bits = 100;
      budget_floor_bits = 0;
    }
  in
  Alcotest.(check (list string))
    "conforming stats pass" []
    (List.map pp_violation (Dip.check_budget b (stats_of ~phases:[ p; v; p; v; p ] ~proof:80)));
  Alcotest.(check (list string))
    "measured prefix of claimed schedule passes" []
    (List.map pp_violation (Dip.check_budget b (stats_of ~phases:[ p; v; p ] ~proof:80)));
  let has pred stats =
    List.exists pred (Dip.check_budget b stats)
  in
  Alcotest.(check bool) "round overrun detected" true
    (has
       (function Dip.Rounds_exceeded _ -> true | _ -> false)
       (stats_of ~phases:[ p; v; p; v; p; v ] ~proof:80));
  Alcotest.(check bool) "schedule mismatch detected" true
    (has
       (function Dip.Schedule_mismatch _ -> true | _ -> false)
       (stats_of ~phases:[ v; p; v ] ~proof:80));
  Alcotest.(check bool) "proof-size overrun detected" true
    (has
       (function Dip.Proof_size_exceeded _ -> true | _ -> false)
       (stats_of ~phases:[ p; v; p; v; p ] ~proof:101));
  let floored = { b with Dip.budget_rounds = 1; budget_schedule = [ p ]; budget_floor_bits = 9 } in
  Alcotest.(check bool) "Theorem 1.8 floor enforced" true
    (List.exists
       (function Dip.Proof_size_below_floor _ -> true | _ -> false)
       (Dip.check_budget floored (stats_of ~phases:[ p ] ~proof:8)))

(* ---- every protocol fits its theorem row ------------------------------ *)

let test_protocols_within_budget () =
  let n = 512 in
  let path, arcs = Gen.lr_yes ~n 7 in
  let inst = { Lr_sorting.n; path; arcs } in
  let lr = Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest inst in
  check_within "Lemma 4.1 lr_sorting" ~id:"lr_sorting" ~n ~delta:2 lr.Lr_sorting.stats;
  let pls_lr = Pls_lr_sorting.run inst in
  check_within "PLS lr_sorting" ~id:"pls_lr_sorting" ~n ~delta:2 pls_lr.Pls_lr_sorting.stats;

  let g, w = Gen.path_outerplanar ~n:256 11 in
  let po =
    Path_outerplanarity.run ~seed:2 ~prover:Path_outerplanarity.Honest
      { Path_outerplanarity.graph = g; witness = Some w }
  in
  check_within "Theorem 1.2 path_outerplanarity" ~id:"path_outerplanarity" ~n:(Graph.n g)
    ~delta:(Graph.max_degree g) po.Path_outerplanarity.stats;
  let pls_po = Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w } in
  check_within "PLS path_outerplanar" ~id:"pls_path_outerplanar" ~n:(Graph.n g)
    ~delta:(Graph.max_degree g) pls_po.Pls_path_outerplanar.stats;

  let g = Gen.outerplanar ~blocks:4 3 in
  let op = Outerplanarity.run ~seed:1 ~prover:Outerplanarity.Honest { Outerplanarity.graph = g } in
  check_within "Theorem 1.3 outerplanarity" ~id:"outerplanarity" ~n:(Graph.n g)
    ~delta:(Graph.max_degree g) op.Outerplanarity.stats;

  let g = Gen.planar ~n:64 5 in
  let rot = match Gen.embedding g with Some r -> r | None -> Alcotest.fail "no embedding" in
  let pe =
    Planar_embedding.run ~seed:1 ~prover:Planar_embedding.Honest
      { Planar_embedding.graph = g; rot }
  in
  check_within "Theorem 1.4 planar_embedding" ~id:"planar_embedding" ~n:(Graph.n g)
    ~delta:(Graph.max_degree g) pe.Planar_embedding.stats;

  let g = Gen.planar ~n:64 1 in
  let pl = Planarity.run ~seed:1 ~prover:Planarity.Honest { Planarity.graph = g } in
  check_within "Theorem 1.5 planarity" ~id:"planarity" ~n:(Graph.n g)
    ~delta:(Graph.max_degree g) pl.Planarity.stats;

  let tr, g = Gen.series_parallel ~size:32 3 in
  let sp =
    Series_parallel_dip.run ~seed:1 ~prover:Series_parallel_dip.Honest
      { Series_parallel_dip.graph = g; ears = Some (Series_parallel.ears_of_sp tr) }
  in
  check_within "Theorem 1.6 series_parallel" ~id:"series_parallel_dip" ~n:(Graph.n g)
    ~delta:(Graph.max_degree g) sp.Series_parallel_dip.stats;

  let g = Gen.treewidth2 ~blocks:4 3 in
  let tw = Treewidth2_dip.run ~seed:1 ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = g } in
  check_within "Theorem 1.7 treewidth2" ~id:"treewidth2_dip" ~n:(Graph.n g)
    ~delta:(Graph.max_degree g) tw.Treewidth2_dip.stats;

  let g = Gen.planar ~n:256 1 in
  let parent = Traversal.tree_parent g 0 in
  let st = Pls_spanning_tree.run g ~parent in
  check_within "PLS spanning tree" ~id:"pls_spanning_tree" ~n:(Graph.n g)
    ~delta:(Graph.max_degree g) st.Pls_spanning_tree.stats

let () =
  Alcotest.run "bounds"
    [
      ("registry", [ Alcotest.test_case "theorem rows" `Quick test_registry ]);
      ("checker", [ Alcotest.test_case "violation classes" `Quick test_checker ]);
      ( "protocols",
        [ Alcotest.test_case "honest runs within budget" `Quick test_protocols_within_budget ] );
    ]
