(* Exhaustive small worlds.  Every labelled graph on up to six nodes (seven
   with DIPP_HEAVY=1) is checked against the minor characterisation of each
   recogniser, and every connected yes-instance on two to five nodes (six
   with DIPP_HEAVY=1) runs through its family's honest prover.  Two
   properties carry the embedder past the exhaustive sizes: every rotation
   it returns is planar and every [None] holds a Kuratowski subdivision,
   and on 3-connected graphs its faces are the unique ones (Whitney). *)

let qtest = QCheck_alcotest.to_alcotest
let heavy = Sys.getenv_opt "DIPP_HEAVY" = Some "1"

(* ---- labelled graphs as edge masks ------------------------------------- *)

(* Edge {i, j} with i < j is bit j(j-1)/2 + i, so a graph on n nodes is a
   mask below 2^(n(n-1)/2), numbered the same way for every n. *)
let bit i j = if i < j then 1 lsl ((j * (j - 1) / 2) + i) else 1 lsl ((i * (i - 1) / 2) + j)
let graphs n = 1 lsl (n * (n - 1) / 2)
let adjacent mask i j = mask land bit i j <> 0

let pairs n = List.concat_map (fun j -> List.init j (fun i -> (i, j))) (List.init n Fun.id)
let edges_of n mask = List.filter (fun (i, j) -> adjacent mask i j) (pairs n)

let graph_of n mask = Graph.create ~n (edges_of n mask)

let show n mask =
  Printf.sprintf "n = %d, edges [%s]" n
    (String.concat "; " (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) (edges_of n mask)))

(* Node v merged into node u: a contraction when uv is an edge, a deletion
   when v is isolated.  Nodes above v move down by one. *)
let merge n mask u v =
  let down x = if x > v then x - 1 else x in
  List.fold_left
    (fun acc (i, j) ->
      let a = down (if i = v then u else i) and b = down (if j = v then u else j) in
      if a = b then acc else acc lor bit a b)
    0 (edges_of n mask)

(* Does the k-node graph [mask] hold K_{s,k-s} as a spanning subgraph? *)
let spans_biclique k s mask =
  let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
  let on side v = (side lsr v) land 1 = 1 in
  List.exists
    (fun side ->
      popcount side = s && List.for_all (fun (i, j) -> on side i = on side j || adjacent mask i j) (pairs k))
    (List.init (1 lsl k) Fun.id)

let complete k mask = mask = graphs k - 1

(* A minor test for a set of obstructions [(k, spans)], where [spans mask]
   says whether the k-node graph [mask] holds the obstruction as a spanning
   subgraph.  Deleting a node that has an edge leaves a subgraph of
   contracting that edge, so contractions, deletions of isolated nodes and
   a final subgraph test reach every minor.  Memoised per labelled graph. *)
let minor_test obstructions =
  let kmin = List.fold_left (fun k (k', _) -> min k k') max_int obstructions in
  let memo = Array.init 8 (fun n -> lazy (Bytes.make (graphs n) '?')) in
  let rec has n mask =
    n >= kmin
    &&
    let m = Lazy.force memo.(n) in
    match Bytes.get m mask with
    | 'y' -> true
    | 'n' -> false
    | _ ->
        let smaller =
          List.concat_map
            (fun v ->
              match List.filter (fun u -> u <> v && adjacent mask u v) (List.init n Fun.id) with
              | [] -> [ merge n mask (if v = 0 then 1 else 0) v ]
              | us -> List.filter_map (fun u -> if u < v then Some (merge n mask u v) else None) us)
            (List.init n Fun.id)
        in
        let r =
          List.exists (fun (k, spans) -> k = n && spans mask) obstructions
          || (n > kmin && List.exists (has (n - 1)) smaller)
        in
        Bytes.set m mask (if r then 'y' else 'n');
        r
  in
  has

let kuratowski = minor_test [ (5, complete 5); (6, spans_biclique 6 3) ]
let outerplanar_obstructions = minor_test [ (4, complete 4); (5, spans_biclique 5 2) ]
let k4 = minor_test [ (4, complete 4) ]

let mask_of g = Graph.fold_edges (fun (i, j) m -> m lor bit i j) g 0

let test_oracle_anchors () =
  let c5 = mask_of (Graph.complete 5) and k33 = mask_of (Graph.complete_bipartite 3 3) in
  Alcotest.(check bool) "K5 has a K5 minor" true (kuratowski 5 c5);
  Alcotest.(check bool) "K3,3 has a K3,3 minor" true (kuratowski 6 k33);
  Alcotest.(check bool) "K5 minus an edge is planar" false (kuratowski 5 (c5 land lnot (bit 0 1)));
  Alcotest.(check bool) "K4 has a K4 minor" true (k4 4 (mask_of (Graph.complete 4)));
  Alcotest.(check bool) "C6 has no K4 minor" false (k4 6 (mask_of (Graph.cycle_graph 6)));
  Alcotest.(check bool) "K2,3 is not outerplanar" true
    (outerplanar_obstructions 5 (mask_of (Graph.complete_bipartite 2 3)));
  (* K4 with one edge subdivided: the subdivision contracts back *)
  let k4_sub = mask_of (Graph.create ~n:5 [ (0, 4); (4, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]) in
  Alcotest.(check bool) "subdivided K4 has a K4 minor" true (k4 5 k4_sub)

(* ---- the recognisers against their minor characterisations ------------ *)

let sweep_recognisers n =
  let bad = ref [] in
  let expect what ok mask = if not ok then bad := (what, mask) :: !bad in
  for mask = 0 to graphs n - 1 do
    let g = graph_of n mask in
    let planar = not (kuratowski n mask) in
    expect "is_planar = no K5/K3,3 minor" (Planar_test.is_planar g = planar) mask;
    (match Planar_test.embed g with
    | Some rot -> expect "embed returns a planar rotation" (planar && Rotation.is_planar_embedding rot) mask
    | None -> expect "embed finds a rotation" (not planar) mask);
    expect "is_outerplanar = no K4/K2,3 minor"
      (Outerplanar.is_outerplanar g = not (outerplanar_obstructions n mask))
      mask;
    let has_k4 = k4 n mask in
    expect "is_treewidth_le_2 = no K4 minor" (Series_parallel.is_treewidth_le_2 g = not has_k4) mask;
    expect "is_series_parallel => no K4 minor" ((not (Series_parallel.is_series_parallel g)) || not has_k4) mask
  done;
  match List.rev !bad with
  | [] -> ()
  | (what, mask) :: _ ->
      Alcotest.failf "%d disagreements at n = %d; first: %s on %s" (List.length !bad) n what (show n mask)

let test_recognisers_small () =
  for n = 0 to 6 do
    sweep_recognisers n
  done

let test_recognisers_seven () = if heavy then sweep_recognisers 7

(* ---- honest completeness on every small yes-instance ------------------ *)

let connected n mask = n > 0 && Traversal.is_connected (graph_of n mask)

let rec permutations = function
  | [] -> [ [] ]
  | l -> List.concat_map (fun x -> List.map (List.cons x) (permutations (List.filter (( <> ) x) l))) l

(* The Hamiltonian paths of the graph, each in both directions. *)
let hamiltonian_paths n mask =
  List.filter
    (fun p ->
      let rec along = function a :: (b :: _ as rest) -> adjacent mask a b && along rest | _ -> true in
      along p)
    (permutations (List.init n Fun.id))

(* Every family's honest runs on one connected labelled graph: [(family,
   accepted)] for each family the graph is a yes-instance of.  LR-sorting
   takes every Hamiltonian path with the other edges as forward arcs. *)
let honest_runs n mask ~seed =
  let g = graph_of n mask in
  let paths = hamiltonian_paths n mask in
  let lr =
    List.map
      (fun p ->
        let path = Array.of_list p in
        let pos = Array.make n 0 in
        Array.iteri (fun i v -> pos.(v) <- i) path;
        let arcs =
          List.filter_map
            (fun (u, v) ->
              let u, v = if pos.(u) < pos.(v) then (u, v) else (v, u) in
              if pos.(v) = pos.(u) + 1 then None else Some (u, v))
            (edges_of n mask)
        in
        ("lr", (Lr_sorting.run ~seed ~prover:Lr_sorting.Honest { Lr_sorting.n; path; arcs }).Lr_sorting.verdict))
      paths
  in
  let if_yes yes family run = if yes then [ (family, run ()) ] else [] in
  let rot = Planar_test.embed g in
  lr
  @ if_yes
      (List.exists (Outerplanar.check_path_witness g) paths)
      "path_outerplanarity"
      (fun () ->
        (Path_outerplanarity.run ~seed ~prover:Path_outerplanarity.Honest
           { Path_outerplanarity.graph = g; witness = None })
          .Path_outerplanarity.verdict)
  @ if_yes (Outerplanar.is_outerplanar g) "outerplanarity" (fun () ->
        (Outerplanarity.run ~seed ~prover:Outerplanarity.Honest { Outerplanarity.graph = g }).Outerplanarity.verdict)
  @ (match rot with
    | None -> []
    | Some rot ->
        [
          ( "planar_embedding",
            (Planar_embedding.run ~seed ~prover:Planar_embedding.Honest { Planar_embedding.graph = g; rot })
              .Planar_embedding.verdict );
          ("planarity", (Planarity.run ~seed ~prover:Planarity.Honest { Planarity.graph = g }).Planarity.verdict);
        ])
  @ if_yes (Series_parallel.is_series_parallel g) "series_parallel" (fun () ->
        (Series_parallel_dip.run ~seed ~prover:Series_parallel_dip.Honest
           { Series_parallel_dip.graph = g; ears = None })
          .Series_parallel_dip.verdict)
  @ if_yes (Series_parallel.is_treewidth_le_2 g) "treewidth2" (fun () ->
        (Treewidth2_dip.run ~seed ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = g }).Treewidth2_dip.verdict)

let sweep_completeness ns =
  let runs = ref 0 and rejected = ref [] in
  List.iter (fun n ->
    for mask = 0 to graphs n - 1 do
      if connected n mask then
        List.iter
          (fun seed ->
            List.iter
              (fun (family, (v : Dip.verdict)) ->
                incr runs;
                if not v.Dip.accepted then rejected := (family, n, mask, seed) :: !rejected)
              (honest_runs n mask ~seed))
          [ 1; 2; 3 ]
    done)
    ns;
  match List.rev !rejected with
  | [] -> ()
  | (family, n, mask, seed) :: _ ->
      Alcotest.failf "%d of %d honest runs rejected; first: %s, seed %d, on %s" (List.length !rejected) !runs family
        seed (show n mask)

let test_completeness_small () = sweep_completeness [ 2; 3; 4; 5 ]
let test_completeness_six () = if heavy then sweep_completeness [ 6 ]

(* ---- the embedder past the exhaustive sizes ---------------------------- *)

(* Is the graph, isolated nodes aside, a subdivision of K5 or K3,3?  Follow
   every edge out of a branch node (degree >= 3) through degree-2 nodes to
   the next branch node; the paths must cover every edge once and join the
   branch nodes as K5 or K3,3. *)
let is_kuratowski_subdivision g =
  let n = Graph.n g in
  let deg = Graph.degree g in
  let branch = List.filter (fun v -> deg v >= 3) (List.init n Fun.id) in
  let id = Array.make n (-1) in
  List.iteri (fun i v -> id.(v) <- i) branch;
  let walked = ref 0 in
  let rec follow prev v =
    incr walked;
    if deg v <> 2 then v
    else
      let ns = Graph.neighbors g v in
      follow v (if ns.(0) = prev then ns.(1) else ns.(0))
  in
  let ends = List.map (fun b -> (b, List.map (follow b) (Array.to_list (Graph.neighbors g b)))) branch in
  (* no path closes a loop or doubles another *)
  let simple (b, es) =
    List.for_all (fun e -> id.(e) >= 0 && e <> b) es
    && List.length (List.sort_uniq Int.compare es) = List.length es
  in
  let mask = List.fold_left (fun m (b, es) -> List.fold_left (fun m e -> m lor bit id.(b) id.(e)) m es) 0 ends in
  List.for_all simple ends
  && !walked = 2 * Graph.m g
  && List.for_all (fun v -> deg v <> 1) (List.init n Fun.id)
  &&
  match List.length branch with
  | 5 -> complete 5 mask
  | 6 -> List.for_all (fun b -> deg b = 3) branch && spans_biclique 6 3 mask
  | _ -> false

(* Delete every edge whose deletion keeps [embed] at [None]: what is left is
   edge-minimal non-planar if [embed] is right, and then a Kuratowski
   subdivision, which certifies the [None] without trusting [embed]. *)
let kuratowski_core g =
  Graph.fold_edges
    (fun e h ->
      let h' = Graph.remove_edges h [ e ] in
      if Option.is_none (Planar_test.embed h') then h' else h)
    g g

let random_graph ~n seed =
  let rng = Rng.create seed in
  let m = Rng.int rng ((3 * n) + 1) in
  Graph.create ~n
    (List.filter_map
       (fun _ ->
         let u = Rng.int rng n and v = Rng.int rng n in
         if u = v then None else Some (u, v))
       (List.init m Fun.id))

(* Random graphs up to 40 nodes, and Gen's planar instances with a K5 or
   K3,3 subdivision spliced in: every rotation [embed] returns is planar,
   and every [None] is either over the edge bound m <= 3n - 6 or certified
   by the Kuratowski subdivision it contains. *)
let prop_embed_sound =
  QCheck.Test.make ~name:"embed: rotations planar, None certified" ~count:200
    QCheck.(triple (int_range 0 3) (int_range 1 40) small_nat)
    (fun (kind, n, seed) ->
      let g =
        match kind with
        | 0 -> Gen.nonplanar ~n:(max 20 n) seed
        | 1 -> Fixtures.nonplanar_k33 ~n:(max 22 n) seed
        | _ -> random_graph ~n seed
      in
      let n = Graph.n g and m = Graph.m g in
      match Planar_test.embed g with
      | Some rot -> Rotation.is_planar_embedding rot
      | None -> (n >= 3 && m > (3 * n) - 6) || is_kuratowski_subdivision (kuratowski_core g))

(* A face as its sorted darts, an embedding as its sorted faces; the mirror
   image reverses every dart. *)
let face_set ?(mirror = false) rot =
  let dart (u, v) = if mirror then (v, u) else (u, v) in
  List.sort (List.compare Graph.compare_edge)
    (List.map (fun f -> List.sort Graph.compare_edge (List.map dart f)) (Rotation.faces rot))

(* Whitney: a 3-connected planar graph has one embedding up to mirror
   image.  Relabel a nested triangulation, embed it, map the rotation back:
   its faces are those of the unrelabelled embedding or of their mirror. *)
let prop_whitney =
  QCheck.Test.make ~name:"embed: 3-connected faces unique up to mirror (Whitney)" ~count:100
    QCheck.(pair (int_range 4 60) small_nat)
    (fun (n, seed) ->
      let g = Gen.nested_triangulation ~n seed in
      let perm = Array.init n Fun.id in
      Rng.shuffle (Rng.create (seed + 1)) perm;
      let inv = Array.make n 0 in
      Array.iteri (fun v p -> inv.(p) <- v) perm;
      match (Planar_test.embed g, Planar_test.embed (Graph.relabel g ~perm)) with
      | Some r0, Some r1 ->
          let back =
            Rotation.create g (Array.init n (fun v -> Array.map (fun w -> inv.(w)) r1.Rotation.rot.(perm.(v))))
          in
          let faces = face_set back in
          faces = face_set r0 || faces = face_set ~mirror:true r0
      | _ -> false)

let () =
  Alcotest.run "small_worlds"
    [
      ("oracle", [ Alcotest.test_case "minor test anchors" `Quick test_oracle_anchors ]);
      ( "recognisers",
        [
          Alcotest.test_case "every labelled graph, n <= 6" `Quick test_recognisers_small;
          Alcotest.test_case "every labelled graph, n = 7 (DIPP_HEAVY=1)" `Slow test_recognisers_seven;
        ] );
      ( "completeness",
        [
          Alcotest.test_case "every connected yes-instance, 2 <= n <= 5" `Quick test_completeness_small;
          Alcotest.test_case "every connected yes-instance, n = 6 (DIPP_HEAVY=1)" `Slow test_completeness_six;
        ] );
      ("embedder", [ qtest prop_embed_sound; qtest prop_whitney ]);
    ]
