(* dipp-lint: the static DIP-model-compliance analyzer (ANALYSIS.md).

   Fixture snippets check that every rule fires on known-bad code and
   stays quiet on sanctioned idioms; the final test runs the analyzer
   over the real library tree and asserts the gate invariant: zero
   findings. *)

module Lint = Dipp_analysis.Lint_rules
module Report = Dipp_analysis.Report

let rules_of findings = List.sort_uniq String.compare (List.map (fun f -> f.Report.rule) findings)
let lint src = Lint.lint_source ~filename:"fixture.ml" src

let check_fires what rule src =
  Alcotest.(check bool)
    (what ^ ": " ^ rule ^ " fires")
    true
    (List.mem rule (rules_of (lint src)))

let check_clean what src =
  Alcotest.(check (list string)) (what ^ ": no findings") [] (rules_of (lint src))

(* ---- locality audit --------------------------------------------------- *)

let test_locality_traversal () =
  check_fires "fold_edges in verify" "locality-traversal"
    "let verify v = Graph.fold_edges (fun _ acc -> acc + v) g 0 = 0";
  check_fires "edges in a *_check fn" "locality-traversal"
    "let consistency_check v = List.length (Graph.edges g) + v";
  check_fires "iter_edges in decide" "locality-traversal"
    "let decide v = Graph.iter_edges (fun _ -> ()) g; v";
  (* a literal lambda handed to Dip.all_accept is a decision too *)
  check_fires "fold_edges in an all_accept lambda" "locality-traversal"
    "let run g = Dip.all_accept ~n (fun v -> Graph.fold_edges (fun _ a -> a) g 0 = v)";
  (* a helper that escapes as a value may be called anywhere *)
  check_fires "fold_edges in a helper passed to List.iter" "locality-traversal"
    "let verify v =\n  let count u = Graph.fold_edges f g u in\n  List.iter count xs;\n  v";
  check_fires "fold_edges under a record field read" "locality-traversal"
    "let verify v = (Graph.fold_edges f g st).lbl.(v)";
  (* the sanctioned neighbor API is fine, and non-decision functions may
     traverse globally *)
  check_clean "neighbors in verify"
    "let verify v = Array.exists (fun u -> labels.(u) < labels.(v)) (Graph.neighbors g v)";
  check_clean "fold_edges outside decision fns"
    "let count_all g = Graph.fold_edges (fun _ acc -> acc + 1) g 0"

let test_locality_index () =
  check_fires "captured global node id" "flow-locality"
    "let verify v = labels.(leftmost_node) = labels.(v)";
  check_fires "captured id in arithmetic" "flow-locality"
    "let decide v = coins.(root + 1) + v";
  check_fires "outer function computes the index" "flow-locality"
    "let verify v = labels.(pick ()) = labels.(v)";
  (* ...but indices built from parameters, bound neighbors, nested
     sanctioned reads, constants and operators are local *)
  check_clean "parameter and neighbor indices"
    "let verify v =\n\
    \  let ok = ref true in\n\
    \  Array.iter (fun u -> if labels.(u) > labels.(v) + 1 then ok := false) (Graph.neighbors g v);\n\
    \  (match parents.(v) with p -> if labels.(p) land 1 <> 0 then ok := false);\n\
    \  !ok";
  check_clean "nested read rooted at the node"
    "let verify v = labels.(parent.(v)) - labels.(v)"

let test_locality_containers () =
  check_fires "Bytes.get with captured index" "flow-locality"
    "let verify v = Bytes.get buf global_pos";
  check_fires "Array.unsafe_get with captured index" "flow-locality"
    "let verify v = Array.unsafe_get labels hub = v";
  check_fires "Hashtbl.find-backed label store" "flow-locality"
    "let decide v = Hashtbl.find tbl root_id + v";
  check_clean "Hashtbl keyed by the node" "let verify v = Hashtbl.mem tbl v"

(* ---- typed information-flow (flow-locality) --------------------------- *)

let test_flow_locality () =
  (* A non-local node id parked in a local slot: a check of the
     subscript's syntax alone would pass it, its provenance does not. *)
  check_fires "array-slot laundering" "flow-locality"
    "let verify v =\n\
    \  let slot = Array.make 1 0 in\n\
    \  slot.(0) <- leftmost_node;\n\
    \  labels.(slot.(0)) = labels.(v)";
  check_fires "ref laundering" "flow-locality"
    "let decide v =\n  let r = ref 0 in\n  r := hidden;\n  labels.(!r) + v";
  check_fires "laundering through a local helper" "flow-locality"
    "let verify v =\n  let pick () = leftmost_node in\n  labels.(pick ()) = labels.(v)";
  check_fires "captured id in a helper passed to List.map" "flow-locality"
    "let verify v =\n  let get u = labels.(hub) + u in\n  List.map get (Graph.neighbors g v)";
  check_clean "neighbor-derived indices stay clean"
    "let verify v = Array.for_all (fun u -> labels.(u) <= labels.(v)) (Graph.neighbors g v)";
  check_clean "local arithmetic stays clean"
    "let decide v =\n  let slot = Array.make 1 0 in\n  slot.(0) <- v + 1;\n  labels.(slot.(0))"

(* ---- static budget verification --------------------------------------- *)

(* Budget fixtures lint under a registered protocol's filename so the
   registry row (lr_sorting: 5 rounds, P-V-P-V-P) applies. *)
let lint_as filename src = Lint.lint_source ~filename src

let budget_fires what filename src =
  Alcotest.(check bool) (what ^ ": budget fires") true
    (List.mem "budget" (rules_of (lint_as filename src)))

let budget_quiet what filename src =
  Alcotest.(check bool) (what ^ ": budget quiet") false
    (List.mem "budget" (rules_of (lint_as filename src)))

let test_budget () =
  budget_fires "truncated schedule" "lr_sorting.ml"
    "let run meter x =\n\
    \  Dip.record_prover meter x;\n\
    \  Dip.record_verifier meter x;\n\
    \  x";
  budget_fires "phase recorded in a closure" "lr_sorting.ml"
    "let run meter xs =\n\
    \  Dip.record_prover meter xs;\n\
    \  List.iter (fun x -> Dip.record_verifier meter x) xs";
  budget_fires "schedule overrun" "lr_sorting.ml"
    "let run meter x =\n\
    \  Dip.record_prover meter x;\n\
    \  Dip.record_verifier meter x;\n\
    \  Dip.record_prover meter x;\n\
    \  Dip.record_verifier meter x;\n\
    \  Dip.record_prover meter x;\n\
    \  Dip.record_verifier meter x;\n\
    \  x";
  budget_quiet "exact five-round schedule" "lr_sorting.ml"
    "let run meter x =\n\
    \  Dip.record_prover meter x;\n\
    \  Dip.record_verifier meter x;\n\
    \  Dip.record_prover meter x;\n\
    \  Dip.record_verifier meter x;\n\
    \  Dip.record_prover meter x;\n\
    \  x";
  (* branches: one arm realizing the declared schedule is enough, but
     every arm must stay within it *)
  budget_quiet "optional trailing rounds in a branch" "lr_sorting.ml"
    "let run meter x =\n\
    \  Dip.record_prover meter x;\n\
    \  Dip.record_verifier meter x;\n\
    \  Dip.record_prover meter x;\n\
    \  if x > 0 then begin\n\
    \    Dip.record_verifier meter x;\n\
    \    Dip.record_prover meter x\n\
    \  end";
  (* a recording protocol under lib/protocols must have a registry row;
     the same module under lib/dip is an exempt building block *)
  budget_fires "undeclared protocol" "protocols/mystery.ml"
    "let run meter x = Dip.record_prover meter x";
  budget_quiet "lib/dip building blocks exempt" "dip/mystery.ml"
    "let run meter x = Dip.record_prover meter x";
  budget_quiet "non-run functions ignored" "lr_sorting.ml"
    "let helper meter x = Dip.record_prover meter x"

(* ---- the CLI: exit codes and formats ---------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let run_cli args =
  let buf = Buffer.create 256 and ebuf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf and err = Format.formatter_of_buffer ebuf in
  let code = Dipp_analysis.Cli.run ~out ~err (Array.of_list ("dipp_lint" :: args)) in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  (code, Buffer.contents buf, Buffer.contents ebuf)

(* ---- rng discipline --------------------------------------------------- *)

let test_rng () =
  check_fires "Random.int" "rng" "let draw () = Random.int 10";
  check_fires "Random.State" "rng" "let draw st = Random.State.bool st";
  check_clean "Rng wrapper is sanctioned" "let draw rng = Rng.int rng 10";
  (* the one module allowed to touch Random is the seeded wrapper itself *)
  Alcotest.(check (list string))
    "Random allowed inside lib/util/rng.ml" []
    (rules_of (Lint.lint_source ~filename:"lib/util/rng.ml" "let raw () = Random.bits ()"));
  (* a module-level stream is Domain-shared mutable state: the engine's
     determinism contract requires per-trial streams derived inside the
     worker, never a global one raced over by the pool *)
  check_fires "toplevel Rng.create" "rng"
    "let shared = Rng.create 42\nlet draw () = Rng.int shared 10";
  check_fires "toplevel Rng.split" "rng" "let worker = Rng.split base 3";
  check_fires "toplevel Rng.split_string" "rng" "let stream = Rng.split_string root \"e2\"";
  check_clean "per-call stream is sanctioned"
    "let fresh seed = let rng = Rng.create seed in Rng.int rng 10";
  check_clean "per-trial split inside the worker"
    "let trial spec_rng i = let rng = Rng.split spec_rng i in Rng.int rng 10";
  Alcotest.(check (list string))
    "toplevel stream allowed inside lib/util/rng.ml" []
    (rules_of (Lint.lint_source ~filename:"lib/util/rng.ml" "let default = Rng.create 0"))

(* Coins by name: under protocols/ and dip/ a seed or a salt names the
   stream; an offset added to a seed, or a literal salt, is flagged. *)
let test_rng_offsets () =
  (* a protocols/ file is also held to the budget rule; only rng matters here *)
  let rng_in ?(dir = "lib/protocols") src =
    List.mem "rng" (rules_of (Lint.lint_source ~filename:(dir ^ "/fixture.ml") src))
  in
  let fires what src = Alcotest.(check bool) (what ^ ": rng fires") true (rng_in src) in
  let clean what src = Alcotest.(check bool) (what ^ ": rng silent") false (rng_in src) in
  fires "seed offset in Rng.create" "let run seed = Rng.create (seed + 211)";
  fires "seed arithmetic in a ~seed: argument" "let run seed b = Sub.run ~seed:(seed + (13 * b)) ()";
  fires "literal salt" "let draw rng v = Rng.split rng (700 + v)";
  fires "bare literal salt" "let draw rng = Rng.split rng 1";
  Alcotest.(check bool) "dip/ is in scope" true (rng_in ~dir:"lib/dip" "let run ~seed = Rng.create (seed * 31 + 17)");
  clean "named sub-run seed" "let run seed = Sub.run ~seed:(Rng.derive seed \"lr\") ()";
  clean "indexed sub-run name" "let run seed b = Sub.run ~seed:(Rng.derive seed (\"block/\" ^ string_of_int b)) ()";
  clean "per-node draw from a role stream" "let draw tag v = Rng.split tag v";
  clean "node id read from an array" "let draw st back = Rng.split st back.(0)";
  (* outside protocols/ and dip/ (the engine, the generators) offsets are
     not coin names *)
  check_clean "offsets outside the coin scope" "let trial seed = Rng.create (seed + 7919)"

(* ---- hygiene ---------------------------------------------------------- *)

let test_obj_magic () =
  check_fires "Obj.magic" "obj-magic" "let cast x = Obj.magic x";
  check_fires "Obj.repr" "obj-magic" "let r x = Obj.repr x"

let test_poly_compare () =
  check_fires "deref vs list literal" "poly-compare" "let empty r = !r = []";
  check_fires "record literal" "poly-compare" "let z s = s = { accepted = true }";
  check_fires "bare compare" "poly-compare" "let sort l = List.sort compare l";
  check_fires "Stdlib.compare" "poly-compare" "let sort l = List.sort Stdlib.compare l";
  check_fires "structural = on Bits" "poly-compare" "let eq a b = Bits.concat a = Bits.concat b";
  check_clean "typed comparisons pass"
    "let sort l = List.sort Int.compare l\nlet eq a b = Bits.equal a b\nlet e r = List.is_empty !r";
  check_clean "constant-constructor equality passes" "let is_p ph = ph = Prover_phase"

let test_partial () =
  check_fires "List.tl" "partial" "let rest l = List.tl l";
  check_fires "List.combine" "partial" "let zip a b = List.combine a b";
  check_fires "Option.get" "partial" "let force o = Option.get o";
  check_clean "pattern matches pass"
    "let rest l = match l with [] -> [] | _ :: t -> t\n\
     let force o = match o with Some x -> x | None -> assert false"

let test_parse_error () =
  check_fires "unparseable source" "parse-error" "let let = ="

(* ---- suppressions ----------------------------------------------------- *)

let test_suppressions () =
  check_clean "same-line allow" "let rest l = List.tl l (* dipp-lint: allow partial *)";
  check_clean "previous-line allow"
    "(* dipp-lint: allow partial *)\nlet rest l = List.tl l";
  check_clean "allow all" "let rest l = List.tl l (* dipp-lint: allow all *)";
  check_clean "several rules"
    "let f l r = ignore (List.tl l); !r = [] (* dipp-lint: allow partial, poly-compare *)";
  (* a suppression for one rule must not silence another *)
  check_fires "allow of other rule keeps finding" "partial"
    "let rest l = List.tl l (* dipp-lint: allow rng *)";
  check_fires "stale line does not cover" "partial"
    "(* dipp-lint: allow partial *)\n\nlet rest l = List.tl l";
  (* the allow list ends where the comment does: code after it on the
     same line is neither read as rule ids nor able to extend the list *)
  Alcotest.(check (list string))
    "trailing code is not an allow list" [ "obj-magic" ]
    (rules_of (lint "let x = 0 (* dipp-lint: allow poly-compare *) let all l = Obj.magic l"));
  check_clean "allow before the call on its line"
    "let rest l = (* dipp-lint: allow partial *) List.tl l"

let test_suppression_validation () =
  (* a typo'd rule id suppresses nothing — that is its own finding *)
  let typo = "let rest l = List.tl l (* dipp-lint: allow partail *)" in
  check_fires "typo'd id warns" "suppression" typo;
  check_fires "typo'd id leaves the finding live" "partial" typo;
  check_fires "unknown id among known ones warns" "suppression"
    "let rest l = List.tl l (* dipp-lint: allow partial, partail *)";
  check_clean "comma list of known ids is fine"
    "let f l r = ignore (List.tl l); !r = [] (* dipp-lint: allow partial, poly-compare *)";
  check_clean "space list of known ids is fine"
    "let f l r = ignore (List.tl l); !r = [] (* dipp-lint: allow partial poly-compare *)";
  check_clean "allow all is fine" "let rest l = List.tl l (* dipp-lint: allow all *)";
  (* the warning itself cannot be suppressed *)
  check_fires "suppression warning is unsuppressible" "suppression"
    "(* dipp-lint: allow suppression *)\nlet x = 1 (* dipp-lint: allow bogus *)"

(* ---- missing-mli (needs a filesystem) --------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "dipp_lint_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let test_missing_mli () =
  with_temp_dir (fun dir ->
      write (Filename.concat dir "naked.ml") "let x = 1\n";
      Alcotest.(check (list string))
        "ml without mli flagged" [ "missing-mli" ]
        (rules_of (Lint.lint_paths [ dir ]));
      write (Filename.concat dir "naked.mli") "val x : int\n";
      Alcotest.(check (list string)) "mli added, clean" [] (rules_of (Lint.lint_paths [ dir ])))

let test_tree_parse_error () =
  (* one file of the tree does not parse: it is reported once, and the
     rest of the tree is still linted as one program *)
  with_temp_dir (fun dir ->
      let put name ml mli =
        write (Filename.concat dir (name ^ ".ml")) ml;
        write (Filename.concat dir (name ^ ".mli")) mli
      in
      put "broken" "let x = (\n" "val x : int\n";
      put "logger" "let say i = Printf.printf \"%d\" i\n" "val say : int -> unit\n";
      put "fanout" "let show n = ignore (Pool.run n (fun i -> Logger.say i))\n" "val show : int -> unit\n";
      let findings = Lint.lint_paths [ dir ] in
      let of_rule rule = List.filter (fun f -> String.equal f.Report.rule rule) findings in
      Alcotest.(check (list string))
        "one parse-error, for the broken file"
        [ Filename.concat dir "broken.ml" ]
        (List.map (fun f -> f.Report.file) (of_rule "parse-error"));
      Alcotest.(check (list string))
        "the pooled call resolves into the sibling module"
        [ Filename.concat dir "fanout.ml" ]
        (List.map (fun f -> f.Report.file) (of_rule "race-determinism"));
      Alcotest.(check (list string))
        "nothing else" [ "parse-error"; "race-determinism" ] (rules_of findings))

let test_cli () =
  with_temp_dir (fun dir ->
      let clean = Filename.concat dir "clean.ml" in
      write clean "let x = 1\n";
      write (Filename.concat dir "clean.mli") "val x : int\n";
      let code, out, _ = run_cli [ clean ] in
      Alcotest.(check int) "clean file exits 0" 0 code;
      Alcotest.(check bool) "clean run says so" true (contains out "no findings");
      let dirty = Filename.concat dir "dirty.ml" in
      write dirty "let rest l = List.tl l\n";
      write (Filename.concat dir "dirty.mli") "val rest : 'a list -> 'a list\n";
      let code, out, _ = run_cli [ dirty ] in
      Alcotest.(check int) "findings exit 1" 1 code;
      Alcotest.(check bool) "text format names the rule" true (contains out "[partial]");
      let code, _, err = run_cli [ "--rules"; "no-such-rule"; clean ] in
      Alcotest.(check int) "unknown rule exits 2" 2 code;
      Alcotest.(check bool) "usage error on stderr" true (contains err "unknown rule");
      let code, _, err = run_cli [ Filename.concat dir "absent.ml" ] in
      Alcotest.(check int) "missing path exits 2" 2 code;
      Alcotest.(check bool) "missing path reported" true (contains err "no such path");
      let code, out, _ = run_cli [ "--list-rules" ] in
      Alcotest.(check int) "--list-rules exits 0" 0 code;
      Alcotest.(check bool) "catalogue includes flow-locality" true (contains out "flow-locality");
      Alcotest.(check bool) "catalogue includes budget" true (contains out "budget");
      let code, out, _ = run_cli [ "--format"; "json"; dirty ] in
      Alcotest.(check int) "json format keeps exit 1" 1 code;
      Alcotest.(check bool) "json carries the rule field" true
        (contains out "\"rule\": \"partial\"");
      let code, out, _ = run_cli [ "--format"; "sarif"; dirty ] in
      Alcotest.(check int) "sarif format keeps exit 1" 1 code;
      Alcotest.(check bool) "sarif schema stamped" true (contains out "sarif-2.1.0");
      Alcotest.(check bool) "sarif result present" true (contains out "\"ruleId\": \"partial\""))

(* ---- the gate: the real tree is clean --------------------------------- *)

let locate_lib () =
  List.find_opt
    (fun dir -> Sys.file_exists (Filename.concat dir "dip/dip.ml"))
    [ "../lib"; "lib"; "../../lib"; "../../../lib" ]

let test_tree_clean () =
  match locate_lib () with
  | None -> Alcotest.fail "cannot locate lib/ from the test working directory"
  | Some dir ->
      let findings = Lint.lint_paths [ dir ] in
      Alcotest.(check (list string))
        "lib/ tree has zero lint findings"
        []
        (List.map (Format.asprintf "%a" Report.pp) findings)

let () =
  Alcotest.run "lint"
    [
      ( "locality",
        [
          Alcotest.test_case "global traversal" `Quick test_locality_traversal;
          Alcotest.test_case "non-local index" `Quick test_locality_index;
          Alcotest.test_case "container coverage" `Quick test_locality_containers;
        ] );
      ("flow", [ Alcotest.test_case "taint laundering" `Quick test_flow_locality ]);
      ("budget", [ Alcotest.test_case "static schedules" `Quick test_budget ]);
      ( "hygiene",
        [
          Alcotest.test_case "rng discipline" `Quick test_rng;
          Alcotest.test_case "rng: coins by name" `Quick test_rng_offsets;
          Alcotest.test_case "obj magic" `Quick test_obj_magic;
          Alcotest.test_case "poly compare" `Quick test_poly_compare;
          Alcotest.test_case "partial stdlib" `Quick test_partial;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "parse error in a tree" `Quick test_tree_parse_error;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "allow comments" `Quick test_suppressions;
          Alcotest.test_case "unknown ids warn" `Quick test_suppression_validation;
        ] );
      ("interfaces", [ Alcotest.test_case "missing mli" `Quick test_missing_mli ]);
      ("cli", [ Alcotest.test_case "exit codes and formats" `Quick test_cli ]);
      ("gate", [ Alcotest.test_case "lib tree is clean" `Quick test_tree_clean ]);
    ]
