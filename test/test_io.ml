(* Graph I/O, duals, topological sort, amplification and per-phase stats. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Graph_io ------------------------------------------------------------ *)

let test_parse_basic () =
  let g = Graph_io.parse_edge_list "n 5\n0 1\n1 2\n# comment\n\n3 4\n" in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check bool) "edge" true (Graph.mem_edge g 3 4)

let test_parse_infers_n () =
  let g = Graph_io.parse_edge_list "0 7\n" in
  Alcotest.(check int) "n inferred" 8 (Graph.n g)

let test_parse_inline_comment () =
  let g = Graph_io.parse_edge_list "0 1 # the first edge\n" in
  Alcotest.(check int) "m" 1 (Graph.m g)

let test_parse_errors () =
  let raises name msg text =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Graph_io.parse_edge_list text))
  in
  raises "garbage" "Graph_io: line 1: expected a node id, got \"a\"" "a b";
  raises "three fields" "Graph_io: line 2: expected 'u v', got 3 fields" "0 1\n0 1 2";
  raises "negative id" "Graph_io: line 1: negative node id -3" "-3 1";
  raises "self-loop" "Graph_io: line 3: self-loop 4 4" "0 1\n1 2\n4 4";
  raises "bad n" "Graph_io: line 1: bad node count \"five\"" "n five\n0 1";
  raises "out of range" "Graph_io: line 3: node id 9 out of range (n = 5)" "n 5\n0 1\n2 9"

let test_read_file_error () =
  let path = Filename.temp_file "dipp" ".txt" in
  let oc = open_out path in
  output_string oc "0 1\nbroken line here\n";
  close_out oc;
  Alcotest.check_raises "path prefixed"
    (Invalid_argument (path ^ ": Graph_io: line 2: expected 'u v', got 3 fields"))
    (fun () -> ignore (Graph_io.read_file path));
  Sys.remove path

let test_read_file_range_error () =
  (* the streaming reader holds only (line, u, v) triples, so a range
     violation against a later-declared bound must still name the line the
     edge came from *)
  let path = Filename.temp_file "dipp" ".txt" in
  let oc = open_out path in
  output_string oc "n 3\n0 1\n1 5\n2 0\n";
  close_out oc;
  Alcotest.check_raises "stored line number"
    (Invalid_argument (path ^ ": Graph_io: line 3: node id 5 out of range (n = 3)"))
    (fun () -> ignore (Graph_io.read_file path));
  Sys.remove path

let test_read_file_streams_large () =
  (* a file bigger than any parser chunk: the two-pass CSR build must
     produce the same graph the string parser does *)
  let n = 20_000 in
  let buf = Buffer.create (n * 12) in
  Buffer.add_string buf (Printf.sprintf "n %d\n" n);
  for v = 1 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "%d %d\n" v (v / 2))
  done;
  let text = Buffer.contents buf in
  let path = Filename.temp_file "dipp" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  let g = Graph_io.read_file path in
  Sys.remove path;
  Alcotest.(check int) "n" n (Graph.n g);
  Alcotest.(check int) "m" (n - 1) (Graph.m g);
  Alcotest.(check bool) "same graph as the string parser" true
    (Graph.equal g (Graph_io.parse_edge_list text))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"graph_io: to_edge_list / parse roundtrip" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 5 60))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      Graph.equal g (Graph_io.parse_edge_list (Graph_io.to_edge_list g)))

let test_file_roundtrip () =
  let g = Gen.outerplanar ~blocks:3 1 in
  let path = Filename.temp_file "dipp" ".txt" in
  Graph_io.write_file path g;
  let g' = Graph_io.read_file path in
  Sys.remove path;
  Alcotest.(check bool) "roundtrip" true (Graph.equal g g')

let test_dot_output () =
  let g = Graph.cycle_graph 3 in
  let dot = Graph_io.to_dot ~highlight:[ (0, 1) ] g in
  Alcotest.(check bool) "graph kw" true (String.length dot > 0 && String.sub dot 0 5 = "graph");
  Alcotest.(check bool) "edge present" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains dot "0 -- 1 [color=red, penwidth=2];" && contains dot "1 -- 2;")

(* ---- dual graphs ----------------------------------------------------------- *)

(* The dual multigraph collapsed to a simple graph: one node per face of
   [Rotation.faces], an edge between two faces that share a primal edge
   (self-loops from bridges and parallel duals are collapsed). *)
let dual rot =
  let fs = Rotation.faces rot in
  let face_of = Hashtbl.create 16 in
  List.iteri (fun i f -> List.iter (fun d -> Hashtbl.replace face_of d i) f) fs;
  let edges =
    Graph.fold_edges
      (fun (u, v) acc ->
        let f1 = Hashtbl.find face_of (u, v) and f2 = Hashtbl.find face_of (v, u) in
        if f1 <> f2 then (f1, f2) :: acc else acc)
      rot.Rotation.graph []
  in
  Graph.create ~n:(List.length fs) edges

let test_dual_cube () =
  (* the 3-cube: 8 nodes, 12 edges, 6 faces; its dual is the octahedron *)
  let cube =
    Graph.create ~n:8
      [ (0,1);(1,2);(2,3);(3,0);(4,5);(5,6);(6,7);(7,4);(0,4);(1,5);(2,6);(3,7) ]
  in
  match Planar_test.embed cube with
  | None -> Alcotest.fail "cube is planar"
  | Some rot ->
      let d = dual rot in
      Alcotest.(check int) "6 dual nodes" 6 (Graph.n d);
      Alcotest.(check int) "12 dual edges" 12 (Graph.m d);
      Alcotest.(check bool) "dual planar" true (Planar_test.is_planar d);
      Alcotest.(check int) "octahedron degrees" 4 (Graph.max_degree d)

let prop_dual_planar =
  QCheck.Test.make ~name:"dual: dual of a planar embedding is planar and connected" ~count:25
    QCheck.(pair (int_bound 10000) (int_range 8 50))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      match Planar_test.embed g with
      | Some rot ->
          let d = dual rot in
          Traversal.is_connected d && Planar_test.is_planar d
      | None -> false)

(* ---- topological sort -------------------------------------------------------- *)

let test_topo_sort_dag () =
  let d = Digraph.create ~n:5 [ (0, 2); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  match Digraph.topological_sort d with
  | Some order ->
      let pos = Array.make 5 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.iter (fun (u, v) -> Alcotest.(check bool) "respects arcs" true (pos.(u) < pos.(v))) (Digraph.arcs d)
  | None -> Alcotest.fail "dag has an order"

let test_topo_sort_cycle () =
  let d = Digraph.create ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check bool) "no order" true (Digraph.topological_sort d = None)

let prop_lr_instances_vs_topo =
  QCheck.Test.make ~name:"lr instances are yes iff the digraph is a DAG" ~count:40
    QCheck.(triple (int_bound 10000) (int_range 10 80) bool)
    (fun (seed, n, yes) ->
      let path, arcs = if yes then Gen.lr_yes ~n seed else Gen.lr_no ~n seed in
      let inst = { Lr_sorting.n; path; arcs } in
      let path_arcs = List.init (n - 1) (fun i -> (path.(i), path.(i + 1))) in
      let d = Digraph.create ~n (path_arcs @ arcs) in
      Lr_sorting.is_yes_instance inst = Digraph.is_acyclic d)

(* ---- amplification -------------------------------------------------------------- *)

let test_amplify_completeness () =
  let g, w = Gen.path_outerplanar ~n:60 1 in
  let a =
    Amplify.run ~reps:3 ~seed:5
      ~run:(fun ~seed ->
        Path_outerplanarity.run ~seed ~prover:Path_outerplanarity.Honest
          { Path_outerplanarity.graph = g; witness = Some w })
      ~verdict:(fun r -> r.Path_outerplanarity.verdict)
      ~stats:(fun r -> r.Path_outerplanarity.stats)
  in
  Alcotest.(check bool) "accepts" true a.Amplify.verdict.Dip.accepted;
  Alcotest.(check int) "3 runs" 3 a.Amplify.accepting_runs;
  Alcotest.(check int) "rounds unchanged" 5 a.Amplify.stats.Dip.interaction_rounds

let test_amplify_soundness_boost () =
  (* single-run escapes vs amplified escapes of the weak ST verification *)
  let bad_parent = Array.init 30 (fun v -> if v = 0 || v = 15 then -1 else v - 1) in
  let g = Graph.path_graph 30 in
  let escapes reps =
    let e = ref 0 in
    for seed = 0 to 49 do
      let a =
        Amplify.run ~reps ~seed
          ~run:(fun ~seed -> Spanning_tree_verify.run ~seed ~reps:1 g ~parent:bad_parent)
          ~verdict:fst ~stats:snd
      in
      if a.Amplify.verdict.Dip.accepted then incr e
    done;
    !e
  in
  let e1 = escapes 1 and e4 = escapes 4 in
  Alcotest.(check bool) "amplification reduces escapes" true (e4 <= e1);
  Alcotest.(check int) "no escapes at 4 reps" 0 e4

let test_amplify_stats_add () =
  let g, w = Gen.path_outerplanar ~n:40 2 in
  let one =
    (Path_outerplanarity.run ~seed:3 ~prover:Path_outerplanarity.Honest
       { Path_outerplanarity.graph = g; witness = Some w })
      .Path_outerplanarity.stats
  in
  let a =
    Amplify.run ~reps:4 ~seed:3
      ~run:(fun ~seed ->
        Path_outerplanarity.run ~seed ~prover:Path_outerplanarity.Honest
          { Path_outerplanarity.graph = g; witness = Some w })
      ~verdict:(fun r -> r.Path_outerplanarity.verdict)
      ~stats:(fun r -> r.Path_outerplanarity.stats)
  in
  Alcotest.(check int) "proof sizes add" (4 * one.Dip.proof_size_bits) a.Amplify.stats.Dip.proof_size_bits

let test_amplify_error_formula () =
  Alcotest.(check (float 1e-9)) "error" 0.001 (Amplify.soundness_error ~single:0.1 ~reps:3)

(* ---- per-phase stats ---------------------------------------------------------- *)

let test_per_phase_shape () =
  let path, arcs = Gen.lr_yes ~n:200 1 in
  let r = Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest { Lr_sorting.n = 200; path; arcs } in
  let phases = List.map fst r.Lr_sorting.stats.Dip.per_phase in
  Alcotest.(check (list bool)) "P-V-P-V-P"
    [ true; false; true; false; true ]
    (List.map (fun p -> p = Dip.Prover_phase) phases);
  List.iter
    (fun (_, bits) -> Alcotest.(check bool) "phase carries content" true (bits > 0))
    r.Lr_sorting.stats.Dip.per_phase;
  let max_phase = List.fold_left (fun acc (_, b) -> max acc b) 0 r.Lr_sorting.stats.Dip.per_phase in
  Alcotest.(check bool) "proof size = max prover phase" true
    (max_phase >= r.Lr_sorting.stats.Dip.proof_size_bits)

let () =
  Alcotest.run "io_amplify"
    [
      ( "graph-io",
        [
          Alcotest.test_case "parse basic" `Quick test_parse_basic;
          Alcotest.test_case "infer n" `Quick test_parse_infers_n;
          Alcotest.test_case "inline comment" `Quick test_parse_inline_comment;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "read_file error" `Quick test_read_file_error;
          Alcotest.test_case "read_file range error line number" `Quick
            test_read_file_range_error;
          Alcotest.test_case "read_file streams a large file" `Quick test_read_file_streams_large;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "dot" `Quick test_dot_output;
          qtest prop_io_roundtrip;
        ] );
      ( "dual",
        [ Alcotest.test_case "cube/octahedron" `Quick test_dual_cube; qtest prop_dual_planar ] );
      ( "topological-sort",
        [
          Alcotest.test_case "dag" `Quick test_topo_sort_dag;
          Alcotest.test_case "cycle" `Quick test_topo_sort_cycle;
          qtest prop_lr_instances_vs_topo;
        ] );
      ( "amplify",
        [
          Alcotest.test_case "completeness" `Quick test_amplify_completeness;
          Alcotest.test_case "soundness boost" `Quick test_amplify_soundness_boost;
          Alcotest.test_case "stats add" `Quick test_amplify_stats_add;
          Alcotest.test_case "error formula" `Quick test_amplify_error_formula;
        ] );
      ("per-phase", [ Alcotest.test_case "shape" `Quick test_per_phase_shape ]);
    ]
