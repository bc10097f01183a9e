(* Property tests for the Figure 2/3 reduction DAG.

   Lemma 7.3 is the hinge of the planarity protocols: a rotation system
   rho of G is a planar embedding iff the reduced graph h(G, T, rho) is
   path-outerplanar along its Euler order.  These QCheck properties
   exercise both directions on random planar instances (and random
   corruptions), plus structural invariants of the reduction and
   end-to-end honest-prover acceptance down the whole DAG
   (Planarity -> Planar_embedding -> Path_outerplanarity -> Lr_sorting).
   Counterexamples are shrunk by QCheck and printed as (seed, n) pairs. *)

let qtest = QCheck_alcotest.to_alcotest
let seed_n = QCheck.(pair (int_bound 100000) (int_range 8 80))

let reduction inst =
  let root = 0 in
  let parent = Traversal.tree_parent inst.Planar_embedding.graph root in
  Planar_embedding.reduce inst ~root ~parent

let euler_path h = List.init (Graph.n h) Fun.id

let embedded inst_of (seed, n) =
  let g = Gen.planar ~n seed in
  match Gen.embedding g with
  | None -> QCheck.Test.fail_report "embed found no embedding for a planar graph"
  | Some rot -> inst_of { Planar_embedding.graph = g; rot }

(* Lemma 7.3, forward: a planar rotation system reduces to a graph whose
   Euler order is a nesting Hamiltonian path. *)
let prop_h_path_outerplanar =
  QCheck.Test.make ~name:"reduction: h(G,T,rho) of an embedding is path-outerplanar" ~count:50
    seed_n
    (embedded (fun inst ->
         Planar_embedding.is_yes_instance inst
         &&
         let red = reduction inst in
         Outerplanar.check_path_witness red.Planar_embedding.h
           (euler_path red.Planar_embedding.h)))

(* Lemma 7.3, converse: corrupting the rotation system to nonzero genus
   breaks the nesting of h along the Euler order. *)
let prop_h_corrupted_not_nesting =
  QCheck.Test.make ~name:"reduction: corrupted rho breaks Euler-order nesting" ~count:50 seed_n
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      match Gen.corrupted_embedding g (seed + 1) with
      | None -> QCheck.assume_fail ()
      | Some rot ->
          let inst = { Planar_embedding.graph = g; rot } in
          (not (Planar_embedding.is_yes_instance inst))
          &&
          let red = reduction inst in
          not
            (Outerplanar.check_path_witness red.Planar_embedding.h
               (euler_path red.Planar_embedding.h)))

(* Structural invariants of the copy construction.  The boundary walk of
   the tree emits one corner per node entry plus one per child return —
   2n - 1 corner nodes, listed per owner in copies_of in tour order — and
   one dart node per non-tree dart, 2(m - n + 1) of them, owned (in
   copy_owner) by the dart's tail but not listed in copies_of. *)
let prop_copy_structure =
  QCheck.Test.make ~name:"reduction: corner/dart copy structure of h" ~count:50 seed_n
    (embedded (fun inst ->
         let red = reduction inst in
         let g = inst.Planar_embedding.graph in
         let n_h = Graph.n red.Planar_embedding.h in
         let n_g = Graph.n g in
         let owners_ok =
           Array.for_all
             (fun owner -> owner >= 0 && owner < n_g)
             red.Planar_embedding.copy_owner
         in
         let rec ascending = function
           | a :: (b :: _ as tl) -> a < b && ascending tl
           | [ _ ] | [] -> true
         in
         let back_ok = ref true and corners = ref 0 in
         Array.iteri
           (fun v copies ->
             (match copies with [] -> back_ok := false | _ :: _ -> ());
             if not (ascending copies) then back_ok := false;
             List.iter
               (fun c ->
                 incr corners;
                 if c < 0 || c >= n_h || red.Planar_embedding.copy_owner.(c) <> v then
                   back_ok := false)
               copies)
           red.Planar_embedding.copies_of;
         let darts = 2 * (Graph.m g - (n_g - 1)) in
         owners_ok && !back_ok
         && !corners = (2 * n_g) - 1
         && n_h = !corners + darts))

(* Honest-prover acceptance survives the reduction end-to-end: the
   embedded-planarity protocol accepts, and so does the inner
   path-outerplanarity run it spawned on h (with its own LR-sorting
   sub-run when the committed path decodes). *)
let prop_honest_end_to_end =
  QCheck.Test.make ~name:"reduction: honest acceptance preserved end-to-end" ~count:40 seed_n
    (embedded (fun inst ->
         let r = Planar_embedding.run ~seed:7 ~prover:Planar_embedding.Honest inst in
         r.Planar_embedding.verdict.Dip.accepted
         && r.Planar_embedding.inner.Path_outerplanarity.verdict.Dip.accepted))

(* The full DAG from the top: Planarity (Thm 1.5) picks its own tree and
   rotation, reduces, and must accept every planar instance. *)
let prop_planarity_dag =
  QCheck.Test.make ~name:"reduction: full Planarity DAG accepts planar instances" ~count:30
    QCheck.(pair (int_bound 100000) (int_range 8 60))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      let r = Planarity.run ~seed:(seed + 3) ~prover:Planarity.Honest { Planarity.graph = g } in
      r.Planarity.verdict.Dip.accepted)

let () =
  Alcotest.run "reduction-props"
    [
      ( "lemma-7.3",
        [
          qtest prop_h_path_outerplanar;
          qtest prop_h_corrupted_not_nesting;
          qtest prop_copy_structure;
        ] );
      ("end-to-end", [ qtest prop_honest_end_to_end; qtest prop_planarity_dag ]);
    ]
