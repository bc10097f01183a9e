(* dipp-race: the domain-safety and determinism pass (ANALYSIS.md).

   Fixture snippets drive Race.analyze directly, one per rule behaviour:
   unguarded shared mutation (module-level and captured), the lockset
   prover, lock discipline (re-entry, submission under a lock, disjoint
   guards, acquisition-order cycles), the merge-only determinism
   contract, the captured-Rng discipline, and trusted annotations with
   their honesty checks.  The mutation tests analyze the real shipped
   modules (lib/trace/label_cache.ml, lib/util/pool.ml) and flip their
   verdicts by editing the source: dropping the label-cache mutex or
   moving a pooled fold into the closure must each produce a finding.  A
   4-domain stress test pins the runtime promise the pass encodes:
   Pool.run results and the Dip.merge_trials fold are independent of the
   worker count and of trial order. *)

module Race = Dipp_analysis.Race
module Lint = Dipp_analysis.Lint_rules
module Report = Dipp_analysis.Report
module Typed_scan = Dipp_analysis.Typed_scan
module Cli = Dipp_analysis.Cli

let rules_of findings = List.sort_uniq String.compare (List.map (fun f -> f.Report.rule) findings)

(* The pass over [src] as a one-source program. *)
let analyze_source ~filename src =
  let program = Typed_scan.of_sources [ (filename, src) ] in
  match Typed_scan.find_file program filename with
  | Some { Typed_scan.parsed = Ok structure; _ } ->
      Race.analyze ~program ~annots:(Race.annotations_of_source src) ~filename structure
  | Some _ | None -> Alcotest.failf "%s does not parse" filename

let analyze ?(filename = "fixture.ml") src =
  let r = analyze_source ~filename src in
  let annots = Race.annotations_of_source src in
  { r with Race.findings = Race.annotation_findings ~filename annots @ r.Race.findings }

let check ?filename src = (analyze ?filename src).Race.findings
let safes ?filename src = (analyze ?filename src).Race.safe
let has_rule rule findings = List.mem rule (rules_of findings)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let some_safe sub ss = List.exists (fun (s : Race.safe) -> contains s.Race.rdesc sub) ss

(* ---- race-shared-mut --------------------------------------------------- *)

let test_shared_global_unguarded () =
  let src = "let total = ref 0\nlet bump () = total := !total + 1\n" in
  let findings = check src in
  Alcotest.(check bool) "unguarded module ref caught" true (has_rule Race.rule_shared findings);
  let f = List.find (fun f -> String.equal f.Report.rule Race.rule_shared) findings in
  Alcotest.(check int) "anchored at the binding" 1 f.Report.line

let test_shared_captured_unguarded () =
  let src =
    "let total n =\n\
    \  let acc = ref 0 in\n\
    \  ignore (Pool.run n (fun i -> acc := !acc + (i * i)));\n\
    \  !acc\n"
  in
  Alcotest.(check bool) "captured ref write caught" true (has_rule Race.rule_shared (check src))

let test_shared_atomic_clean () =
  let src = "let total = Atomic.make 0\nlet bump () = Atomic.incr total\n" in
  Alcotest.(check (list string)) "atomic global is clean" [] (rules_of (check src));
  Alcotest.(check bool) "atomic proof listed" true (some_safe "atomic" (safes src))

let test_shared_guarded_clean () =
  let src =
    "let lock = Mutex.create ()\n\
     let best = ref 0\n\
     let submit v =\n\
    \  Mutex.lock lock;\n\
    \  best := max !best v;\n\
    \  Mutex.unlock lock\n"
  in
  Alcotest.(check (list string)) "mutex-guarded merge is clean" [] (rules_of (check src));
  Alcotest.(check bool) "guarded-by proof listed" true (some_safe "guarded-by `lock`" (safes src))

(* ---- race-lock-discipline ---------------------------------------------- *)

let test_lock_reentry () =
  let src =
    "let m = Mutex.create ()\n\
     let f () = Mutex.lock m; Mutex.lock m; Mutex.unlock m; Mutex.unlock m\n"
  in
  let findings = check src in
  Alcotest.(check bool) "re-entry caught" true (has_rule Race.rule_lock findings);
  let f = List.find (fun f -> String.equal f.Report.rule Race.rule_lock) findings in
  Alcotest.(check bool) "names non-reentrancy" true (contains f.Report.msg "not reentrant")

let test_lock_held_across_submission () =
  let src =
    "let m = Mutex.create ()\n\
     let f n =\n\
    \  Mutex.lock m;\n\
    \  let r = Pool.run n (fun i -> i) in\n\
    \  Mutex.unlock m;\n\
    \  r\n"
  in
  let findings = check src in
  Alcotest.(check bool) "submission under a lock caught" true (has_rule Race.rule_lock findings);
  let f = List.find (fun f -> String.equal f.Report.rule Race.rule_lock) findings in
  Alcotest.(check bool) "names the held lock" true (contains f.Report.msg "`m` held across")

let test_lock_disjoint_guards () =
  let src =
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let t = Hashtbl.create 8\n\
     let one k v = Mutex.lock a; Hashtbl.replace t k v; Mutex.unlock a\n\
     let two k v = Mutex.lock b; Hashtbl.replace t k v; Mutex.unlock b\n"
  in
  let findings = check src in
  Alcotest.(check bool) "two guards for one table caught" true (has_rule Race.rule_lock findings);
  let f = List.find (fun f -> String.equal f.Report.rule Race.rule_lock) findings in
  Alcotest.(check bool) "lists both mutexes" true
    (contains f.Report.msg "a" && contains f.Report.msg "b")

let test_lock_order_cycle () =
  let src =
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n\
     let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n"
  in
  let findings = check src in
  Alcotest.(check bool) "opposite acquisition orders caught" true
    (List.exists
       (fun f -> String.equal f.Report.rule Race.rule_lock && contains f.Report.msg "cycle")
       findings);
  (* one consistent order is fine *)
  let consistent =
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n\
     let g () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n"
  in
  Alcotest.(check (list string)) "consistent order is clean" [] (rules_of (check consistent))

(* ---- race-determinism -------------------------------------------------- *)

let test_determinism_ordered_under_lock () =
  (* a list cons is order-dependent even inside the critical section *)
  let src =
    "let lock = Mutex.create ()\n\
     let acc = ref [0]\n\
     let add n =\n\
    \  ignore (Pool.run n (fun i -> Mutex.lock lock; acc := i :: !acc; Mutex.unlock lock))\n"
  in
  let findings = check src in
  Alcotest.(check bool) "guarded cons still caught" true
    (has_rule Race.rule_determinism findings);
  Alcotest.(check bool) "but not as a data race" false (has_rule Race.rule_shared findings)

let test_determinism_shared_print () =
  let src = "let show n = ignore (Pool.run n (fun i -> Printf.printf \"%d\" i))\n" in
  Alcotest.(check bool) "pooled printf caught" true
    (has_rule Race.rule_determinism (check src))

let test_determinism_fold_after_join_clean () =
  let src =
    "let total n =\n\
    \  let parts = Pool.run n (fun i -> i * i) in\n\
    \  Array.fold_left ( + ) 0 parts\n"
  in
  Alcotest.(check (list string)) "post-join fold is clean" [] (rules_of (check src))

let test_determinism_guarded_merge_from_pool_clean () =
  let src =
    "let lock = Mutex.create ()\n\
     let best = ref 0\n\
     let f n =\n\
    \  ignore (Pool.run n (fun i -> Mutex.lock lock; best := max !best i; Mutex.unlock lock))\n"
  in
  Alcotest.(check (list string)) "pooled max-merge under a lock is clean" []
    (rules_of (check src))

(* ---- race-rng ---------------------------------------------------------- *)

let test_rng_pooled_draw () =
  let src =
    "let f n =\n\
    \  let rng = Rng.create 42 in\n\
    \  ignore (Pool.run n (fun i -> Rng.int rng (i + 1)))\n"
  in
  Alcotest.(check bool) "pooled draw from captured stream caught" true
    (has_rule Race.rule_rng (check src))

let test_rng_escape () =
  let src =
    "let f n =\n\
    \  let rng = Rng.create 1 in\n\
    \  ignore (Pool.run n (fun i -> Soundness.run_trial rng i))\n"
  in
  Alcotest.(check bool) "captured stream escaping to a callee caught" true
    (has_rule Race.rule_rng (check src))

let test_rng_constant_salt () =
  let src =
    "let f n =\n\
    \  let rng = Rng.create 7 in\n\
    \  ignore (Pool.run n (fun _ -> Rng.split rng 0))\n"
  in
  Alcotest.(check bool) "constant-salt split caught" true (has_rule Race.rule_rng (check src))

let test_rng_per_task_split_clean () =
  let src =
    "let f n =\n\
    \  let rng = Rng.create 7 in\n\
    \  ignore (Pool.run n (fun i -> Rng.split rng i))\n"
  in
  Alcotest.(check (list string)) "task-keyed split is clean" [] (rules_of (check src));
  Alcotest.(check bool) "per-task proof listed" true (some_safe "per-task stream" (safes src))

(* ---- trusted annotations ----------------------------------------------- *)

let test_annotation_domain_local () =
  let src =
    "(* dipp-race: domain-local *)\n\
     let warned = ref false\n\
     let warn () = if not !warned then warned := true\n"
  in
  Alcotest.(check (list string)) "trusted annotation silences the pass" [] (rules_of (check src));
  (* honesty: the assumed proof is visible in the --race-safe listing *)
  Alcotest.(check bool) "trusted proof listed" true
    (some_safe "trusted annotation domain-local" (safes src))

let test_annotation_unknown_mutex () =
  let src = "(* dipp-race: guarded-by ghost *)\nlet t = ref 0\nlet f () = t := 1\n" in
  let findings = check src in
  Alcotest.(check bool) "guarded-by claim without a mutex caught" true
    (List.exists (fun f -> contains f.Report.msg "no Mutex of that name") findings)

let test_annotation_malformed () =
  let src = "(* dipp-race: guarded-by *)\nlet t = ref 0\n" in
  Alcotest.(check bool) "wrong-arity annotation caught" true
    (has_rule Race.rule_shared (check src))

let test_annotation_unused () =
  let src = "(* dipp-race: merge-only *)\nlet f x = x + 1\n" in
  let findings = check src in
  Alcotest.(check bool) "annotation on nothing mutable caught" true
    (List.exists (fun f -> contains f.Report.msg "does not attach") findings)

let test_suppression_token () =
  (* the registry derives suppression tokens, so race rules are valid
     dipp-lint allow targets and invalid ones still error *)
  let bare = "let total = ref 0\nlet bump () = total := !total + 1\n" in
  Alcotest.(check bool) "finding without suppression" true
    (has_rule Race.rule_shared (Lint.lint_source ~filename:"fixture.ml" bare));
  let allowed = "(* dipp-lint: allow race-shared-mut *)\n" ^ bare in
  Alcotest.(check (list string)) "race rule is a valid allow token" []
    (rules_of (Lint.lint_source ~filename:"fixture.ml" allowed))

(* ---- mutation checks: the verdict flips on the shipped modules --------- *)

let locate_lib () =
  List.find_opt
    (fun dir -> Sys.file_exists (Filename.concat dir "dip/dip.ml"))
    [ "../lib"; "lib"; "../../lib"; "../../../lib" ]

let test_mutation_label_cache_lock () =
  match locate_lib () with
  | None -> Alcotest.fail "cannot locate lib/ from the test working directory"
  | Some dir ->
      let file = Filename.concat dir "trace/label_cache.ml" in
      let src = In_channel.with_open_bin file In_channel.input_all in
      Alcotest.(check (list string))
        "shipped label cache is clean" []
        (rules_of (analyze_source ~filename:file src).Race.findings);
      (* drop every lock/unlock of the table's mutex: the guarded-by
         proof must collapse into a shared-mutation finding *)
      let unlocked =
        String.split_on_char '\n' src
        |> List.map (fun line ->
               if contains line "Mutex.lock lock" || contains line "Mutex.unlock lock" then "  ();"
               else line)
        |> String.concat "\n"
      in
      Alcotest.(check bool) "dropping the mutex flips the verdict" true
        (has_rule Race.rule_shared (analyze_source ~filename:file unlocked).Race.findings)

let test_mutation_pool_clean_with_proofs () =
  match locate_lib () with
  | None -> Alcotest.fail "cannot locate lib/ from the test working directory"
  | Some dir ->
      let file = Filename.concat dir "util/pool.ml" in
      let src = In_channel.with_open_bin file In_channel.input_all in
      let r = analyze_source ~filename:file src in
      Alcotest.(check (list string)) "shipped pool is clean" [] (rules_of r.Race.findings);
      Alcotest.(check bool) "with nonempty proof listing" true (List.length r.Race.safe >= 4);
      Alcotest.(check bool) "including the task-indexed result cells" true
        (some_safe "task-indexed write" r.Race.safe)

let test_mutation_fold_into_closure () =
  (* the engine's shape: per-task results folded after the join is the
     clean idiom; moving the accumulation into the closure must turn
     into a finding *)
  let clean =
    "let total n =\n\
    \  let parts = Pool.run n (fun i -> i * i) in\n\
    \  Array.fold_left ( + ) 0 parts\n"
  in
  let mutated =
    "let total n =\n\
    \  let acc = ref 0 in\n\
    \  ignore (Pool.run n (fun i -> acc := !acc + (i * i)));\n\
    \  !acc\n"
  in
  Alcotest.(check (list string)) "fold-after-join is clean" [] (rules_of (check clean));
  Alcotest.(check bool) "in-closure accumulation is a finding" true
    (has_rule Race.rule_shared (check mutated))

(* ---- the proved-safe golden listings ----------------------------------- *)

(* The committed listings are proof ledgers: every shared-state site in
   lib with the proof CI trusts (--race-safe), and every subscript the
   refinement pass proved in bounds (--refine-safe); a site disappearing
   or a proof weakening is a diff here before it is a pipeline failure. *)
let test_safe_golden flag name () =
  match locate_lib () with
  | None -> Alcotest.fail "cannot locate lib/ from the test working directory"
  | Some dir -> (
      let golden =
        List.find_opt Sys.file_exists
          [ "golden/" ^ name; "test/golden/" ^ name; "../test/golden/" ^ name ]
      in
      match golden with
      | None -> Alcotest.fail (name ^ " not found")
      | Some gfile ->
          let buf = Buffer.create 4096 in
          let out = Format.formatter_of_buffer buf in
          let code = Cli.run ~out ~err:out [| "dipp_lint"; flag; dir |] in
          Format.pp_print_flush out ();
          Alcotest.(check int) "exit 0" 0 code;
          let prefix = dir ^ "/" in
          let plen = String.length prefix in
          let normalize line =
            if String.length line >= plen && String.equal (String.sub line 0 plen) prefix then
              "lib/" ^ String.sub line plen (String.length line - plen)
            else line
          in
          let got =
            Buffer.contents buf |> String.split_on_char '\n' |> List.map normalize
            |> String.concat "\n"
          in
          let want = In_channel.with_open_bin gfile In_channel.input_all in
          Alcotest.(check string) "listing matches the committed golden" want got)

(* ---- 4-domain stress: the promise the pass encodes --------------------- *)

let mk_stats i =
  {
    Dip.interaction_rounds = 1 + (i mod 3);
    proof_size_bits = 10 * ((i * 7 mod 13) + 1);
    max_node_total_bits = (i * 5 mod 11) + 1;
    total_prover_bits = i + 1;
    total_verifier_bits = (2 * i) + 1;
    phases = [];
    per_phase = [];
  }

let stats_equal a b = Dip.merge_trials [ a ] = Dip.merge_trials [ b ]

let test_pool_merge_schedule_independent () =
  let n = 64 in
  let baseline = Array.init n mk_stats in
  (* Pool.run returns index-ordered results for any worker count *)
  List.iter
    (fun jobs ->
      let r = Pool.run ~jobs n mk_stats in
      Alcotest.(check int) (Printf.sprintf "jobs=%d: %d results" jobs n) n (Array.length r);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d results index-ordered" jobs)
        true
        (Array.for_all2 stats_equal baseline r))
    [ 1; 2; 4 ];
  (* and merge_trials is insensitive to trial order: any permutation of
     the per-task stats folds to the same merged record *)
  let merged = Dip.merge_trials (Array.to_list baseline) in
  let reversed = Dip.merge_trials (List.rev (Array.to_list baseline)) in
  let interleaved =
    let evens = List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list baseline) in
    let odds = List.filteri (fun i _ -> i mod 2 = 1) (Array.to_list baseline) in
    Dip.merge_trials (odds @ evens)
  in
  Alcotest.(check bool) "merge invariant under reversal" true (merged = reversed);
  Alcotest.(check bool) "merge invariant under interleaving" true (merged = interleaved)

let () =
  Alcotest.run "race"
    [
      ( "shared-mut",
        [
          Alcotest.test_case "module-level unguarded" `Quick test_shared_global_unguarded;
          Alcotest.test_case "captured unguarded" `Quick test_shared_captured_unguarded;
          Alcotest.test_case "atomic is clean" `Quick test_shared_atomic_clean;
          Alcotest.test_case "mutex-guarded is clean" `Quick test_shared_guarded_clean;
        ] );
      ( "lock-discipline",
        [
          Alcotest.test_case "re-entry" `Quick test_lock_reentry;
          Alcotest.test_case "lock across submission" `Quick test_lock_held_across_submission;
          Alcotest.test_case "disjoint guards" `Quick test_lock_disjoint_guards;
          Alcotest.test_case "acquisition-order cycle" `Quick test_lock_order_cycle;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "ordered update under lock" `Quick
            test_determinism_ordered_under_lock;
          Alcotest.test_case "pooled print" `Quick test_determinism_shared_print;
          Alcotest.test_case "fold after join clean" `Quick test_determinism_fold_after_join_clean;
          Alcotest.test_case "guarded merge clean" `Quick
            test_determinism_guarded_merge_from_pool_clean;
        ] );
      ( "rng",
        [
          Alcotest.test_case "pooled draw" `Quick test_rng_pooled_draw;
          Alcotest.test_case "stream escape" `Quick test_rng_escape;
          Alcotest.test_case "constant salt" `Quick test_rng_constant_salt;
          Alcotest.test_case "per-task split clean" `Quick test_rng_per_task_split_clean;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "domain-local trusted" `Quick test_annotation_domain_local;
          Alcotest.test_case "unknown mutex" `Quick test_annotation_unknown_mutex;
          Alcotest.test_case "malformed" `Quick test_annotation_malformed;
          Alcotest.test_case "unused" `Quick test_annotation_unused;
          Alcotest.test_case "suppression token" `Quick test_suppression_token;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "label-cache mutex dropped" `Quick test_mutation_label_cache_lock;
          Alcotest.test_case "pool clean with proofs" `Quick test_mutation_pool_clean_with_proofs;
          Alcotest.test_case "fold moved into closure" `Quick test_mutation_fold_into_closure;
        ] );
      ( "golden",
        [
          Alcotest.test_case "--race-safe matches committed listing" `Quick
            (test_safe_golden "--race-safe" "race_safe.golden.txt");
          Alcotest.test_case "--refine-safe matches committed listing" `Quick
            (test_safe_golden "--refine-safe" "refine_safe.golden.txt");
        ]
      );
      ( "stress",
        [
          Alcotest.test_case "pool+merge schedule-independent" `Quick
            test_pool_merge_schedule_independent;
        ] );
    ]
