open Dipp_protocols
module Gen = Dipp_gen.Gen

(* Every trial draws its generator seed and protocol seed from the trial's
   private stream, so outcomes depend only on (experiment seed, id, index). *)
let seed_bound = 0x3FFF_FFFF
let draw_seed rng = Rng.int rng seed_bound

(* ---- E2: LR-sorting adversaries (Lemma 4.1) -------------------------- *)

let lr_n = 300
let lr_trials = 600

let lr_spec name prover c =
  {
    Spec.id = Printf.sprintf "e2/%s/c%d" name c;
    experiment = "E2";
    family = Printf.sprintf "lr-no n=%d" lr_n;
    adversary = name;
    n = lr_n;
    trials = lr_trials;
    trial =
      (fun rng _i ->
        let path, arcs = Gen.lr_no ~n:lr_n (draw_seed rng) in
        let r = Lr_sorting.run ~seed:(draw_seed rng) ~c ~prover { Lr_sorting.n = lr_n; path; arcs } in
        Some { Spec.accepted = r.Lr_sorting.verdict.Dip.accepted; stats = r.Lr_sorting.stats });
  }

let e2 =
  List.concat_map
    (fun (name, prover) -> List.map (fun c -> lr_spec name prover c) [ 2; 3 ])
    [
      ("forge-pairs", Lr_sorting.Forge_pairs);
      ("shift-positions", Lr_sorting.Shift_positions);
      ("fake-inner", Lr_sorting.Fake_inner);
      ("honest-labels", Lr_sorting.Honest);
    ]

(* ---- E3: path-outerplanarity adversaries (Theorem 1.2) --------------- *)

let po_n = 150
let po_trials = 400

let po_spec name prover =
  {
    Spec.id = "e3/" ^ name;
    experiment = "E3";
    family = Printf.sprintf "path-crossing n=%d" po_n;
    adversary = name;
    n = po_n;
    trials = po_trials;
    trial =
      (fun rng _i ->
        let g, w = Gen.path_crossing ~n:po_n (draw_seed rng) in
        let r =
          Path_outerplanarity.run ~seed:(draw_seed rng) ~prover
            { Path_outerplanarity.graph = g; witness = Some w }
        in
        Some
          {
            Spec.accepted = r.Path_outerplanarity.verdict.Dip.accepted;
            stats = r.Path_outerplanarity.stats;
          });
  }

let e3 =
  List.map
    (fun (name, prover) -> po_spec name prover)
    [
      ("crossing-sweep", Path_outerplanarity.Crossing_sweep);
      ("flip-orientation", Path_outerplanarity.Flip_orientation);
      ("fake-path", Path_outerplanarity.Fake_path);
    ]

(* ---- E4: outerplanarity component-cheat (Theorem 1.3) ---------------- *)

let e4 =
  [
    {
      Spec.id = "e4/component-cheat";
      experiment = "E4";
      family = "outerplanar-no blocks=4";
      adversary = "component-cheat";
      n = 4;
      trials = 300;
      trial =
        (fun rng _i ->
          let g = Gen.outerplanar_no ~blocks:4 (draw_seed rng) in
          let r =
            Outerplanarity.run ~seed:(draw_seed rng) ~prover:Outerplanarity.Component_cheat
              { Outerplanarity.graph = g }
          in
          Some { Spec.accepted = r.Outerplanarity.verdict.Dip.accepted; stats = r.Outerplanarity.stats });
    };
  ]

(* ---- E5: corrupted rotation systems (Theorem 1.4) -------------------- *)

let pe_n = 80

let e5 =
  [
    {
      Spec.id = "e5/corrupted-rotation";
      experiment = "E5";
      family = Printf.sprintf "planar n=%d, genus>0 rotation" pe_n;
      adversary = "crossing-sweep";
      n = pe_n;
      trials = 300;
      trial =
        (fun rng _i ->
          let g = Gen.planar ~n:pe_n (draw_seed rng) in
          match Gen.corrupted_embedding g (draw_seed rng) with
          | None -> None
          | Some rot ->
              let r =
                Planar_embedding.run ~seed:(draw_seed rng) ~prover:Planar_embedding.Crossing_sweep
                  { Planar_embedding.graph = g; rot }
              in
              Some
                {
                  Spec.accepted = r.Planar_embedding.verdict.Dip.accepted;
                  stats = r.Planar_embedding.stats;
                });
    };
  ]

(* ---- E6: planarity vs spliced K5 (Theorem 1.5) ----------------------- *)

let pl_n = 60

let e6 =
  [
    {
      Spec.id = "e6/best-rotation";
      experiment = "E6";
      family = Printf.sprintf "nonplanar (spliced K5) n=%d" pl_n;
      adversary = "best-rotation";
      n = pl_n;
      trials = 250;
      trial =
        (fun rng _i ->
          let g = Gen.nonplanar ~n:pl_n (draw_seed rng) in
          let r =
            Planarity.run ~seed:(draw_seed rng) ~prover:Planarity.Best_rotation
              { Planarity.graph = g }
          in
          Some { Spec.accepted = r.Planarity.verdict.Dip.accepted; stats = r.Planarity.stats });
    };
  ]

(* ---- E7: series-parallel ear-cheat (Theorem 1.6) --------------------- *)

let sp_size = 40

let e7 =
  [
    {
      Spec.id = "e7/ear-cheat";
      experiment = "E7";
      family = Printf.sprintf "sp-no size=%d" sp_size;
      adversary = "ear-cheat";
      n = sp_size;
      trials = 300;
      trial =
        (fun rng _i ->
          match Gen.series_parallel_no ~size:sp_size (draw_seed rng) with
          | None -> None
          | Some (g, ears) ->
              let r =
                Series_parallel_dip.run ~seed:(draw_seed rng) ~prover:Series_parallel_dip.Ear_cheat
                  { Series_parallel_dip.graph = g; ears = Some ears }
              in
              Some
                {
                  Spec.accepted = r.Series_parallel_dip.verdict.Dip.accepted;
                  stats = r.Series_parallel_dip.stats;
                });
    };
  ]

(* ---- E8: treewidth <= 2 component-cheat (Theorem 1.7) ---------------- *)

let e8 =
  [
    {
      Spec.id = "e8/component-cheat";
      experiment = "E8";
      family = "treewidth2-no blocks=4";
      adversary = "component-cheat";
      n = 4;
      trials = 200;
      trial =
        (fun rng _i ->
          match Gen.treewidth2_no ~blocks:4 (draw_seed rng) with
          | None -> None
          | Some g ->
              let r =
                Treewidth2_dip.run ~seed:(draw_seed rng) ~prover:Treewidth2_dip.Component_cheat
                  { Treewidth2_dip.graph = g }
              in
              Some
                { Spec.accepted = r.Treewidth2_dip.verdict.Dip.accepted; stats = r.Treewidth2_dip.stats });
    };
  ]

(* ---- pooled completeness rows (one per family) ------------------------ *)

(* Honest runs on a fixed pool of yes-instances from the family table:
   trial i replays pool entry [i mod pool] with a pool-indexed protocol
   seed, so the (instance, seed) pair repeats across trials and the
   content-addressed label cache (Family.honest) can serve the repeats.
   Pool constants are independent of the experiment seed; the cached
   outcome equals the recomputed one, so trials_report.json is
   byte-identical with the cache on or off.  Perfect completeness makes
   the expected rejection count exactly 0. *)

module Family = Dipp_trace.Family

let pool = 4
let completeness_trials = 32

let completeness_spec (experiment, label, n, fam, size, gseed, seed) =
  let runs =
    (* eager: Lazy.force is not domain-safe under Pool workers *)
    Array.init pool (fun k ->
        let inst = fam.Family.build ~n:size ~gseed:(gseed + k) in
        fun () ->
          let verdict, stats = Family.honest fam inst ~seed:(seed + k) in
          { Spec.accepted = verdict.Dip.accepted; stats })
  in
  {
    Spec.id = String.lowercase_ascii experiment ^ "/honest/pooled";
    experiment;
    family = Printf.sprintf "%s pool=%d" label pool;
    adversary = "honest-pooled";
    n;
    trials = completeness_trials;
    trial = (fun _rng i -> Some (runs.(i mod pool) ()));
  }

(* (experiment, family label, reported n, family, size, gseed base, seed
   base); E4/E8 report their block count, built at n = 32 = 4 blocks *)
let completeness =
  List.map completeness_spec
    [
      ("E2", Printf.sprintf "lr-yes n=%d" lr_n, lr_n, Family.lr, lr_n, 100, 500);
      ("E3", Printf.sprintf "path-outerplanar n=%d" po_n, po_n, Family.path_outerplanarity, po_n, 200, 600);
      ("E4", "outerplanar blocks=4", 4, Family.outerplanarity, 32, 300, 700);
      ("E5", Printf.sprintf "planar n=%d" pe_n, pe_n, Family.planar_embedding, pe_n, 400, 800);
      ("E6", Printf.sprintf "planar n=%d" pl_n, pl_n, Family.planarity, pl_n, 500, 900);
      ("E7", Printf.sprintf "sp size=%d" sp_size, sp_size, Family.series_parallel, sp_size, 600, 1000);
      ("E8", "treewidth2 blocks=4", 4, Family.treewidth2, 32, 700, 1100);
    ]

let specs = List.concat (List.map2 (fun adv c -> adv @ [ c ]) [ e2; e3; e4; e5; e6; e7; e8 ] completeness)
let by_experiment tag = List.filter (fun s -> String.equal s.Spec.experiment tag) specs
let find id = List.find_opt (fun s -> String.equal s.Spec.id id) specs
