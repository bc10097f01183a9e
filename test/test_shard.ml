(* Sharded execution (lib/net/shard.ml) of the network engine and its
   partitioner (lib/graph/partition.ml).

   Contracts under test:
   - partition invariants: blocks cover the nodes, are pairwise disjoint,
     respect the size cap, agree with [block]/[pos], and recount the cut;
     the partition is a pure function of (graph, blocks, seed);
   - reliable reference: under a reliable network, at 1 and 4 shards, the
     verdict equals the decision-only Net.replay_check and the counters
     equal their closed form (every directed edge sends once per round and
     is acknowledged once), on every protocol tier;
   - result invariance: the rendered result equals Net.execute's across
     shard counts 1/2/4/8, worker counts 1/2, and partition seeds, under
     every fault model, and on a 1 000-node ladder grid under chaos —
     the determinism contract (net.mli);
   - pinned output: the rendered result and run counters equal strings
     recorded from the heap engine the calendar engine replaced, for
     inputs the invariance test does not reach;
   - scale: the 10^4 ladder rung renders the reliable reference at 1 and
     8 shards; the 10^6 rung does too behind DIPP_HEAVY=1. *)

let qtest = QCheck_alcotest.to_alcotest
let seed = 1234

let planar_instance n =
  let g = Gen.planar ~n 7 in
  (g, Traversal.tree_parent g 0)

let render (r : Net.result) =
  let ints = String.concat "," (List.map string_of_int r.Net.rejecting) in
  let crashed = String.concat "," (List.map string_of_int r.Net.crashed_nodes) in
  Format.asprintf "%b [%s] [%s] %.17g %a" r.Net.accepted ints crashed r.Net.heard Net.pp_stats
    r.Net.stats

(* ---- partition invariants ---------------------------------------------- *)

let graph_arb =
  QCheck.make
    ~print:(fun (s, n, extra, blocks, pseed) ->
      Printf.sprintf "seed=%d n=%d extra=%d blocks=%d pseed=%d" s n extra blocks pseed)
    QCheck.Gen.(
      map
        (fun ((s, n, extra), (blocks, pseed)) -> (s, n, extra, blocks, pseed))
        (pair (triple (int_bound 10000) (int_range 1 80) (int_bound 60)) (pair (int_range 1 12) (int_bound 1000))))

let random_graph s n extra =
  (* a random tree plus [extra] random edges: connected unless extra
     collides, mixed degrees, self-loop-free by construction *)
  let rng = Rng.create s in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Rng.int rng v) :: !edges
  done;
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Graph.create ~n !edges

let prop_partition_invariants =
  QCheck.Test.make ~name:"partition: cover/disjoint/cap/pos/cut invariants" ~count:200 graph_arb
    (fun (s, n, extra, blocks, pseed) ->
      let g = random_graph s n extra in
      let p = Partition.make ~seed:pseed ~blocks g in
      let k = p.Partition.nblocks in
      if k < 1 || k > min blocks n then QCheck.Test.fail_report "nblocks out of range";
      (* cover + disjoint: every node appears in exactly the block and slot
         that [block]/[pos] claim *)
      let seen = Array.make n 0 in
      Array.iteri
        (fun b members ->
          Array.iteri
            (fun i v ->
              seen.(v) <- seen.(v) + 1;
              if p.Partition.block.(v) <> b then QCheck.Test.fail_report "block mismatch";
              if p.Partition.pos.(v) <> i then QCheck.Test.fail_report "pos mismatch")
            members)
        p.Partition.blocks;
      if Array.exists (fun c -> c <> 1) seen then QCheck.Test.fail_report "not a partition";
      (* the size cap *)
      let cap = (n + k - 1) / k in
      Array.iter
        (fun members ->
          if Array.length members > cap then QCheck.Test.fail_report "cap exceeded")
        p.Partition.blocks;
      (* cut recount *)
      let cut = ref 0 in
      Graph.iter_edges
        (fun (u, v) -> if p.Partition.block.(u) <> p.Partition.block.(v) then incr cut)
        g;
      if !cut <> p.Partition.cut_edges then QCheck.Test.fail_report "cut miscount";
      true)

let prop_partition_seed_pure =
  QCheck.Test.make ~name:"partition: pure function of (graph, blocks, seed)" ~count:100 graph_arb
    (fun (s, n, extra, blocks, pseed) ->
      let g = random_graph s n extra in
      let p1 = Partition.make ~seed:pseed ~blocks g in
      let p2 = Partition.make ~seed:pseed ~blocks g in
      p1.Partition.block = p2.Partition.block
      && p1.Partition.blocks = p2.Partition.blocks
      && p1.Partition.cut_edges = p2.Partition.cut_edges)

let test_partition_blocks_sorted () =
  let g = random_graph 3 50 30 in
  let p = Partition.make ~seed:5 ~blocks:4 g in
  Array.iter
    (fun members ->
      Array.iteri
        (fun i v -> if i > 0 then Alcotest.(check bool) "members ascending" true (members.(i - 1) < v))
        members)
    p.Partition.blocks

(* ---- engine equivalence (reliable network) ----------------------------- *)

let protocols () =
  let g, parent = planar_instance 60 in
  [
    Net_protocols.pls_spanning_tree ~graph:g ~parent;
    Net_protocols.st_verify ~reps:3 ~seed:5 g ~parent;
    (let r = Planarity.run ~seed:3 ~prover:Planarity.Honest { Planarity.graph = g } in
     Net_protocols.transport ~name:"planarity" ~graph:g ~stats:r.Planarity.stats
       ~verdict:r.Planarity.verdict);
  ]

(* What a reliable network must give: the decision-only replay verdict,
   every directed edge sent once per round and acknowledged once, nothing
   lost. *)
let reliable_reference proto =
  let v = Net.replay_check proto ~frames:proto.Net.rounds in
  let sent = 2 * Graph.m proto.Net.graph * Array.length proto.Net.rounds in
  render
    {
      Net.accepted = v.Dip.accepted;
      rejecting = v.Dip.rejecting;
      crashed_nodes = [];
      heard = 1.0;
      stats =
        {
          Net.sent;
          delivered = 2 * sent;
          dropped = 0;
          corrupted = 0;
          duplicated = 0;
          late = 0;
          retransmits = 0;
          acks = sent;
        };
    }

let test_reliable_reference () =
  List.iter
    (fun proto ->
      let expected = reliable_reference proto in
      List.iter
        (fun (shards, mode) ->
          Alcotest.(check string)
            (Printf.sprintf "%s at %d shard(s): replay verdict + closed-form counters"
               proto.Net.name shards)
            expected
            (render
               (Shard.execute ~mode ~shards ~jobs:2 ~rng:(Rng.create seed) ~model:Fault.reliable
                  proto)))
        [
          (1, Net.Strict);
          (1, Net.Degrade { quorum = 0.8 });
          (4, Net.Strict);
          (4, Net.Degrade { quorum = 0.8 });
        ])
    (protocols ())

(* ---- result invariance under faults ------------------------------------ *)

(* (instance, fault model) inputs.  Chaos at 0.3 delays enough copies that
   two events on one link meet in the same tick — the order the
   structural key pins; an insertion-order key diverges across shard
   counts there.  The last input adds scale: a 1 000-node ladder grid
   under chaos at 0.05. *)
let invariance_inputs () =
  let g, parent = planar_instance 60 in
  let st = Net_protocols.st_verify ~reps:3 ~seed:5 g ~parent in
  let grid = Gen.triangulated_grid ~n:1_000 1 in
  List.map
    (fun model -> ("st-verify n=60", st, model))
    [
      Fault.reliable;
      Fault.drop ~rate:0.2;
      Fault.chaos ~rate:0.1;
      Fault.chaos ~rate:0.3;
      Fault.crash ~rate:0.05;
    ]
  @ [
      ( "pls grid n=1000",
        Net_protocols.pls_spanning_tree ~graph:grid ~parent:(Traversal.tree_parent grid 0),
        Fault.chaos ~rate:0.05 );
    ]

let test_invariant_across_shards_jobs_seeds () =
  List.iteri
    (fun mi (name, proto, model) ->
      let run ~shards ~jobs ~partition_seed =
        render (Shard.execute ~shards ~jobs ~partition_seed ~rng:(Rng.create seed) ~model proto)
      in
      let base = render (Net.execute ~rng:(Rng.create seed) ~model proto) in
      List.iter
        (fun (shards, jobs, partition_seed) ->
          Alcotest.(check string)
            (Printf.sprintf "%s, model %d: shards=%d jobs=%d pseed=%d == Net.execute" name mi
               shards jobs partition_seed)
            base
            (run ~shards ~jobs ~partition_seed))
        [
          (1, 1, 0); (1, 2, 3); (2, 1, 0); (2, 2, 0); (4, 1, 0); (4, 2, 9); (8, 1, 0); (8, 2, 0);
          (8, 2, 77);
        ])
    (invariance_inputs ())

(* ---- pinned engine output ---------------------------------------------- *)

(* The full rendered result plus the run counters, recorded from the
   heap engine, for inputs the invariance test does not reach: a
   two-tick window (latency 2, timeout 3 give W = 2), a long backoff chain
   (retries 7) under a far deadline, and a five-round transport.  Any
   change to the event order, the fault-stream keys or the window
   boundaries shows up here as a changed string. *)
let pin_inputs () =
  let g, parent = planar_instance 60 in
  let st = Net_protocols.st_verify ~reps:3 ~seed:5 g ~parent in
  let five_rounds =
    let per_phase =
      List.concat_map
        (fun bits -> [ (Dip.Prover_phase, bits); (Dip.Verifier_phase, 8) ])
        [ 12; 0; 40; 3; 17 ]
    in
    let stats =
      {
        Dip.interaction_rounds = List.length per_phase;
        proof_size_bits = 40;
        max_node_total_bits = 72;
        total_prover_bits = 0;
        total_verifier_bits = 0;
        phases = List.map fst per_phase;
        per_phase;
      }
    in
    Net_protocols.transport ~name:"five-rounds" ~graph:g ~stats
      ~verdict:{ Dip.accepted = false; rejecting = [ 4; 31 ] }
  in
  [
    ("latency 2 timeout 3", st, { Net.default_config with Net.latency = 2; timeout = 3 });
    ("retries 7 deadline 1000", st, { Net.default_config with Net.retries = 7; deadline = 1000 });
    ("5-round transport", five_rounds, Net.default_config);
  ]

let pin_models = [ ("chaos 0.3", Fault.chaos ~rate:0.3); ("delay 0.3", Fault.delay ~rate:0.3 ()) ]

let pinned_run ~config ~model ~shards proto =
  let r, st =
    Shard.execute_ex ~config ~shards ~jobs:2 ~rng:(Rng.create seed) ~model proto
  in
  Printf.sprintf "%s events=%d windows=%d cross=%d" (render r) st.Shard.events st.Shard.windows
    st.Shard.cross_messages

(* (input, model, shards) -> pinned string *)
let pinned =
  [
    ( "latency 2 timeout 3", "chaos 0.3", 1,
      "false [1,3,4,5,6,8,9,10,11,13,15,24,28,48,49,57] [46,53] 0.99135033323674282 sent=609 delivered=1187 dropped=177 corrupted=107 duplicated=158 late=25 retransmits=365 acks=597 events=2006 windows=52 cross=0" );
    ( "latency 2 timeout 3", "chaos 0.3", 4,
      "false [1,3,4,5,6,8,9,10,11,13,15,24,28,48,49,57] [46,53] 0.99135033323674282 sent=609 delivered=1187 dropped=177 corrupted=107 duplicated=158 late=25 retransmits=365 acks=597 events=2006 windows=52 cross=541" );
    ( "latency 2 timeout 3", "delay 0.3", 1,
      "true [] [] 1 sent=559 delivered=1118 dropped=0 corrupted=0 duplicated=0 late=60 retransmits=311 acks=559 events=1912 windows=65 cross=0" );
    ( "latency 2 timeout 3", "delay 0.3", 4,
      "true [] [] 1 sent=559 delivered=1118 dropped=0 corrupted=0 duplicated=0 late=60 retransmits=311 acks=559 events=1912 windows=65 cross=498" );
    ( "retries 7 deadline 1000", "chaos 0.3", 1,
      "false [3,4,5,6,8,9,10,11,13,15,24,28,48,49,57] [46,53] 0.99135033323674282 sent=507 delivered=970 dropped=146 corrupted=87 duplicated=133 late=0 retransmits=263 acks=476 events=1721 windows=100 cross=0" );
    ( "retries 7 deadline 1000", "chaos 0.3", 4,
      "false [3,4,5,6,8,9,10,11,13,15,24,28,48,49,57] [46,53] 0.99135033323674282 sent=507 delivered=970 dropped=146 corrupted=87 duplicated=133 late=0 retransmits=263 acks=476 events=1721 windows=100 cross=451" );
    ( "retries 7 deadline 1000", "delay 0.3", 1,
      "true [] [] 1 sent=419 delivered=838 dropped=0 corrupted=0 duplicated=0 late=0 retransmits=171 acks=419 events=1505 windows=111 cross=0" );
    ( "retries 7 deadline 1000", "delay 0.3", 4,
      "true [] [] 1 sent=419 delivered=838 dropped=0 corrupted=0 duplicated=0 late=0 retransmits=171 acks=419 events=1505 windows=111 cross=370" );
    ( "5-round transport", "chaos 0.3", 1,
      "false [0,3,4,7,8,10,11,12,13,20,24,31,36,49] [46,53] 0.94920473936701089 sent=2654 delivered=4787 dropped=706 corrupted=340 duplicated=612 late=107 retransmits=1426 acks=2227 events=8488 windows=349 cross=0" );
    ( "5-round transport", "chaos 0.3", 4,
      "false [0,3,4,7,8,10,11,12,13,20,24,31,36,49] [46,53] 0.94920473936701089 sent=2654 delivered=4787 dropped=706 corrupted=340 duplicated=612 late=107 retransmits=1426 acks=2227 events=8488 windows=349 cross=2185" );
    ( "5-round transport", "delay 0.3", 1,
      "false [4,13,23,31] [] 0.99523809523809514 sent=2249 delivered=4498 dropped=0 corrupted=0 duplicated=0 late=286 retransmits=1009 acks=2249 events=7899 windows=378 cross=0" );
    ( "5-round transport", "delay 0.3", 4,
      "false [4,13,23,31] [] 0.99523809523809514 sent=2249 delivered=4498 dropped=0 corrupted=0 duplicated=0 late=286 retransmits=1009 acks=2249 events=7899 windows=378 cross=2054" );
  ]

let test_pinned_engine () =
  let inputs = pin_inputs () in
  List.iter
    (fun (name, mname, shards, expected) ->
      let _, proto, config = List.find (fun (n, _, _) -> n = name) inputs in
      let model = List.assoc mname pin_models in
      Alcotest.(check string)
        (Printf.sprintf "%s, %s, %d shard(s)" name mname shards)
        expected
        (pinned_run ~config ~model ~shards proto))
    pinned

let test_stats_shape () =
  let g, parent = planar_instance 60 in
  let proto = Net_protocols.pls_spanning_tree ~graph:g ~parent in
  let r, st =
    Shard.execute_ex ~shards:4 ~jobs:2 ~rng:(Rng.create seed) ~model:Fault.reliable proto
  in
  Alcotest.(check bool) "accepted" true r.Net.accepted;
  Alcotest.(check int) "4 shards used" 4 st.Shard.shards;
  Alcotest.(check bool) "some windows ran" true (st.Shard.windows > 0);
  Alcotest.(check bool) "events processed" true (st.Shard.events > 0);
  Alcotest.(check bool) "cross-shard traffic exists" true (st.Shard.cross_messages > 0);
  (* one shard: everything is local *)
  let _, st1 = Shard.execute_ex ~shards:1 ~rng:(Rng.create seed) ~model:Fault.reliable proto in
  Alcotest.(check int) "1 shard: no cross traffic" 0 st1.Shard.cross_messages

let test_shards_clamped_to_n () =
  let g = Graph.path_graph 3 in
  let parent = [| -1; 0; 1 |] in
  let proto = Net_protocols.pls_spanning_tree ~graph:g ~parent in
  let r, st =
    Shard.execute_ex ~shards:64 ~rng:(Rng.create seed) ~model:Fault.reliable proto
  in
  Alcotest.(check bool) "tiny graph accepts" true r.Net.accepted;
  Alcotest.(check bool) "shards clamped to n" true (st.Shard.shards <= 3)

(* ---- scale -------------------------------------------------------------- *)

(* one ladder rung: both yes-families accept at 1 and 8 shards with
   exactly the reliable reference's verdict and counters *)
let ladder_smoke n =
  List.iter
    (fun (name, g) ->
      let proto = Net_protocols.pls_spanning_tree ~graph:g ~parent:(Traversal.tree_parent g 0) in
      let expected = reliable_reference proto in
      List.iter
        (fun shards ->
          let r, st =
            Shard.execute_ex ~shards ~jobs:2 ~rng:(Rng.create 42) ~model:Fault.reliable proto
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d at %d shard(s) accepts" name n shards)
            true r.Net.accepted;
          Alcotest.(check string)
            (Printf.sprintf "%s n=%d at %d shard(s): reliable reference" name n shards)
            expected (render r);
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d at %d shard(s): events scale with n" name n shards)
            true
            (st.Shard.events > 2 * n))
        [ 1; 8 ])
    [ ("triangulated-grid", Gen.triangulated_grid ~n 1);
      ("nested-triangulation", Gen.nested_triangulation ~n 1) ]

let test_ladder_smoke () = ladder_smoke 10_000

let test_million_round_trip () =
  match Sys.getenv_opt "DIPP_HEAVY" with
  | Some "1" -> ladder_smoke 1_000_000
  | Some _ | None -> ()

let test_generators_planarity () =
  List.iter
    (fun n ->
      let g = Gen.triangulated_grid ~n 3 in
      Alcotest.(check int) "grid: exact n" n (Graph.n g);
      Alcotest.(check bool) "grid: planar" true (Option.is_some (Planar_test.embed g));
      let g = Gen.nested_triangulation ~n 3 in
      Alcotest.(check int) "nested: exact n" n (Graph.n g);
      Alcotest.(check int) "nested: maximal planar m" ((3 * n) - 6) (Graph.m g);
      Alcotest.(check bool) "nested: planar" true (Option.is_some (Planar_test.embed g)))
    [ 20; 100; 500 ];
  List.iter
    (fun n ->
      let g = Gen.triangulated_grid_no ~n 3 in
      Alcotest.(check int) "grid-no: exact n" n (Graph.n g);
      Alcotest.(check bool) "grid-no: nonplanar" true (Option.is_none (Planar_test.embed g));
      let g = Gen.nested_triangulation_no ~n 3 in
      Alcotest.(check int) "nested-no: exact n" n (Graph.n g);
      Alcotest.(check bool) "nested-no: nonplanar" true (Option.is_none (Planar_test.embed g)))
    [ 40; 200 ]

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          qtest prop_partition_invariants;
          qtest prop_partition_seed_pure;
          Alcotest.test_case "block members ascending" `Quick test_partition_blocks_sorted;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "reliable: replay + closed form" `Quick
            test_reliable_reference;
          Alcotest.test_case "stats shape + cross traffic" `Quick test_stats_shape;
          Alcotest.test_case "shards clamped to n" `Quick test_shards_clamped_to_n;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "faulty runs invariant across shards/jobs/partition seeds" `Quick
            test_invariant_across_shards_jobs_seeds;
          Alcotest.test_case "pinned output: 2-tick window, long backoff, 5 rounds" `Quick
            test_pinned_engine;
        ] );
      ( "scale",
        [
          Alcotest.test_case "ladder generators: exact n, planarity" `Quick
            test_generators_planarity;
          Alcotest.test_case "10^4 ladder round-trip" `Quick test_ladder_smoke;
          Alcotest.test_case "10^6 round-trip (DIPP_HEAVY=1)" `Slow test_million_round_trip;
        ] );
    ]
