(* The deterministic multicore trial engine (lib/engine).

   Three contracts under test:
   - the Pool computes exactly the sequential result for every worker
     count, and propagates worker exceptions;
   - per-trial RNG streams are keyed by (seed, spec id, index) only, so
     the emitted trials_report.json is byte-identical for 1, 2 and 4
     domains, and streams never collide across trials, specs or seeds;
   - fixed-seed golden rejection counts for the named adversaries of
     E2/E3/E5: a protocol change that weakens soundness fails here
     instead of only drifting in EXPERIMENTS.md. *)

let golden_seed = 42

(* ---- pool ------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  let f i = (i * 31) lxor (i lsr 2) in
  let expect = Array.init 1000 f in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d equals sequential" jobs)
        expect
        (Pool.run ~jobs 1000 f))
    [ 1; 2; 3; 4; 8 ]

let test_pool_edge_cases () =
  Alcotest.(check (array int)) "n=0" [||] (Pool.run ~jobs:4 0 (fun i -> i));
  Alcotest.(check (array int)) "n=1" [| 7 |] (Pool.run ~jobs:4 1 (fun _ -> 7));
  Alcotest.(check (array int))
    "jobs > n" [| 0; 2; 4 |]
    (Pool.run ~jobs:64 3 (fun i -> 2 * i))

exception Boom of int

let test_pool_exception () =
  List.iter
    (fun jobs ->
      match Pool.run ~jobs 64 (fun i -> if i = 13 then raise (Boom i) else i) with
      | _ -> Alcotest.failf "jobs=%d: expected Boom to propagate" jobs
      | exception Boom 13 -> ()
      | exception e -> Alcotest.failf "jobs=%d: unexpected %s" jobs (Printexc.to_string e))
    [ 1; 4 ]

(* ---- per-trial stream derivation ------------------------------------- *)

let test_split_string_distinct () =
  let root = Rng.create 5 in
  let ids = List.map (fun s -> s.Engine.Spec.id) Soundness.specs in
  let draws = List.map (fun id -> Rng.bits64 (Rng.split_string root id)) ids in
  Alcotest.(check int)
    "distinct streams for distinct spec ids" (List.length ids)
    (List.length (List.sort_uniq Int64.compare draws));
  let again = Rng.bits64 (Rng.split_string (Rng.create 5) "e2/forge-pairs/c2") in
  let first =
    Rng.bits64 (Rng.split_string (Rng.create 5) "e2/forge-pairs/c2")
  in
  Alcotest.(check bool) "same (seed, id) replays the stream" true (Int64.equal again first)

(* No collision across 4 experiment seeds x every spec x 64 trial indexes:
   4096 derived streams, 4096 distinct first draws. *)
let test_trial_streams_no_collision () =
  let tbl = Hashtbl.create 8192 in
  let streams = ref 0 in
  List.iter
    (fun seed ->
      let root = Rng.create seed in
      List.iter
        (fun spec ->
          let spec_rng = Rng.split_string root spec.Engine.Spec.id in
          for i = 0 to 63 do
            incr streams;
            Hashtbl.replace tbl (Rng.bits64 (Rng.split spec_rng i)) ()
          done)
        Soundness.specs)
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "all per-trial streams distinct" !streams (Hashtbl.length tbl)

(* ---- report determinism across domain counts ------------------------- *)

let small_batch =
  List.filter_map
    (fun (id, trials) ->
      Option.map (Engine.Spec.with_trials trials) (Soundness.find id))
    [ ("e2/forge-pairs/c2", 16); ("e5/corrupted-rotation", 10); ("e7/ear-cheat", 12) ]

let test_report_identical_across_jobs () =
  Alcotest.(check int) "batch resolved" 3 (List.length small_batch);
  let report jobs =
    Engine.report_string ~seed:golden_seed (Engine.run_all ~jobs ~seed:golden_seed small_batch)
  in
  let r1 = report 1 in
  Alcotest.(check string) "jobs=2 byte-identical to jobs=1" r1 (report 2);
  Alcotest.(check string) "jobs=4 byte-identical to jobs=1" r1 (report 4)

let test_write_report_roundtrip () =
  let results = Engine.run_all ~jobs:2 ~seed:golden_seed small_batch in
  let path = Filename.temp_file "dipp_trials" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Engine.write_report ~path ~seed:golden_seed results;
      let ic = open_in_bin path in
      let written =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string)
        "file bytes equal report_string" (Engine.report_string ~seed:golden_seed results) written;
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "no timing fields" false (contains written "wall_clock"))

(* ---- golden soundness counts (E2/E3/E5) ------------------------------ *)

(* Pinned (spec id, trials, rejected) at seed 42.  These change only if a
   protocol, adversary, generator or the stream derivation changes — any
   of which must be a conscious decision. *)
let golden_table =
  [
    ("e2/forge-pairs/c2", 25, 25);
    ("e2/forge-pairs/c3", 25, 25);
    ("e2/shift-positions/c2", 25, 25);
    ("e2/shift-positions/c3", 25, 25);
    ("e2/fake-inner/c2", 25, 25);
    ("e2/fake-inner/c3", 25, 25);
    ("e2/honest-labels/c2", 25, 25);
    ("e2/honest-labels/c3", 25, 25);
    ("e3/crossing-sweep", 20, 20);
    ("e3/flip-orientation", 20, 20);
    ("e3/fake-path", 20, 20);
    ("e5/corrupted-rotation", 20, 20);
  ]

let golden_reduced =
  [
    ("e2/forge-pairs/c2", 25);
    ("e2/forge-pairs/c3", 25);
    ("e2/shift-positions/c2", 25);
    ("e2/shift-positions/c3", 25);
    ("e2/fake-inner/c2", 25);
    ("e2/fake-inner/c3", 25);
    ("e2/honest-labels/c2", 25);
    ("e2/honest-labels/c3", 25);
    ("e3/crossing-sweep", 20);
    ("e3/flip-orientation", 20);
    ("e3/fake-path", 20);
    ("e5/corrupted-rotation", 20);
  ]

let test_golden_rejections () =
  let specs =
    List.filter_map
      (fun (id, trials) -> Option.map (Engine.Spec.with_trials trials) (Soundness.find id))
      golden_reduced
  in
  Alcotest.(check int) "all golden specs resolved" (List.length golden_reduced) (List.length specs);
  let results = Engine.run_all ~jobs:(Pool.default_jobs ()) ~seed:golden_seed specs in
  let actual =
    List.map
      (fun r -> (r.Engine.spec.Engine.Spec.id, r.Engine.completed, r.Engine.rejected))
      results
  in
  Alcotest.(check (list (triple string int int)))
    "fixed-seed rejection counts" golden_table actual

(* ---- DIPP_JOBS validation --------------------------------------------- *)

(* An explicitly-set but invalid DIPP_JOBS (zero, negative, non-numeric)
   must clamp to sequential execution, not silently fan out to every core.
   Runs as the last suite: Unix.putenv cannot unset a variable, so the
   environment is left at DIPP_JOBS=1 (sequential — behavior-neutral). *)
let test_invalid_jobs_sequential () =
  List.iter
    (fun v ->
      Unix.putenv "DIPP_JOBS" v;
      Alcotest.(check int) (Printf.sprintf "DIPP_JOBS=%S clamps to 1" v) 1 (Pool.default_jobs ()))
    [ "0"; "-3"; "banana"; "" ];
  List.iter
    (fun (v, expect) ->
      Unix.putenv "DIPP_JOBS" v;
      Alcotest.(check int) (Printf.sprintf "DIPP_JOBS=%S honored" v) expect (Pool.default_jobs ()))
    [ ("3", 3); (" 2 ", 2); ("100", 64); ("1", 1) ]

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "matches sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
        ] );
      ( "streams",
        [
          Alcotest.test_case "split_string distinct" `Quick test_split_string_distinct;
          Alcotest.test_case "no trial-stream collision" `Quick test_trial_streams_no_collision;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "report identical for 1/2/4 domains" `Quick
            test_report_identical_across_jobs;
          Alcotest.test_case "write_report roundtrip" `Quick test_write_report_roundtrip;
        ] );
      ("golden", [ Alcotest.test_case "E2/E3/E5 rejection counts" `Quick test_golden_rejections ]);
      ( "env",
        [ Alcotest.test_case "invalid DIPP_JOBS runs sequentially" `Quick test_invalid_jobs_sequential ] );
    ]
