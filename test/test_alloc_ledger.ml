(* The allocation ledger: the words each honest family allocates to build
   its instance and to run, at n = 256 and 2048 (gseed 3, seed 1, jobs 1),
   plus the PLS round-trip on a 10^4-node triangulated grid through the
   sharded network engine at 1 and 4 shards.

   Allocation is deterministic where time is not, so these counts are the
   committed performance baseline (test/golden/alloc_ledger.golden.txt).
   Each entry is counted exactly (Alloc) after one warm-up call.  The
   suite fails when an entry grows by more than 2 %, when a family's build
   or run words per node at 2048 exceed 1.25 x those at 256, or when the
   compiler differs from the one the ledger was taken with.  Every run
   writes the fresh ledger next to the test; on a failure the message
   names the [cp] that makes it the golden. *)

let gseed = 3
let seed = 1
let sizes = [ 256; 2048 ]
let grid_n = 10_000
let tolerance = 1.02
let linear_factor = 1.25

type entry = { name : string; nodes : int; build : float; run : float }

(* Words of [f ()] after one warm-up call, which settles lazy tables. *)
let measure f =
  ignore (Sys.opaque_identity (f ()));
  Alloc.words_of f

let family_entries (fam : Family.t) =
  List.map
    (fun n ->
      let build () = fam.Family.build ~n ~gseed in
      let build_words = measure build in
      let inst = build () in
      let run_words = measure (fun () -> inst.Family.run ~retain:false ~seed) in
      { name = Printf.sprintf "%s/%d" fam.Family.name n; nodes = inst.Family.nodes; build = build_words; run = run_words })
    sizes

let pls_entries () =
  let build () =
    let g = Gen.triangulated_grid ~n:grid_n gseed in
    (g, Traversal.tree_parent g 0)
  in
  let build_words = measure build in
  let g, parent = build () in
  List.map
    (fun shards ->
      let run () =
        Shard.execute ~shards ~jobs:1 ~rng:(Rng.create seed) ~model:Fault.reliable
          (Net_protocols.pls_spanning_tree ~graph:g ~parent)
      in
      { name = Printf.sprintf "pls-roundtrip/shards%d" shards; nodes = Graph.n g; build = build_words; run = measure run })
    [ 1; 4 ]

let entries = lazy (List.concat_map family_entries Family.all @ pls_entries ())

let render entries =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "# words = minor + major - promoted after Gc.minor, one warm-up call per entry\n\
     # families: Family.build ~gseed:3, then the instance's run ~seed:1 (no label cache)\n\
     # pls-roundtrip: Gen.triangulated_grid ~n:10000 3, Shard.execute ~jobs:1\n\
     # entry nodes build_words run_words\n";
  Buffer.add_string b (Printf.sprintf "ocaml %s\n" Sys.ocaml_version);
  List.iter
    (fun e -> Buffer.add_string b (Printf.sprintf "%s %d %.0f %.0f\n" e.name e.nodes e.build e.run))
    entries;
  Buffer.contents b

let golden_name = "alloc_ledger.golden.txt"

(* The golden's path and the fresh ledger's, which sits next to this test:
   tests run from _build/default/test, a manual run from the repo root. *)
let paths =
  lazy
    (match List.find_opt (fun d -> Sys.file_exists (Filename.concat d golden_name)) [ "golden"; "test/golden" ] with
    | Some dir -> (Filename.concat dir golden_name, Filename.concat (Filename.dirname dir) "alloc_ledger.fresh.txt")
    | None -> Alcotest.failf "%s not found" golden_name)

let fresh =
  lazy
    (let text = render (Lazy.force entries) in
     let _, out = Lazy.force paths in
     Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc text);
     text)

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let regenerate () =
  let golden, out = Lazy.force paths in
  Printf.sprintf "the fresh ledger is in %s; to accept it: cp %s %s" out (absolute out) (absolute golden)

let golden =
  lazy
    (let path, _ = Lazy.force paths in
     let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
     let lines = List.filter (fun l -> l <> "" && l.[0] <> '#') lines in
     match lines with
     | version :: rows ->
         ( version,
           List.map
             (fun row ->
               match String.split_on_char ' ' row with
               | [ name; nodes; build; run ] ->
                   { name; nodes = int_of_string nodes; build = float_of_string build; run = float_of_string run }
               | _ -> Alcotest.failf "malformed ledger line %S" row)
             rows )
     | [] -> Alcotest.fail "empty ledger")

let test_compiler () =
  ignore (Lazy.force fresh);
  let version, _ = Lazy.force golden in
  let want = "ocaml " ^ Sys.ocaml_version in
  if version <> want then
    Alcotest.failf "ledger taken with %S, this is %S: %s" version want (regenerate ())

let test_no_growth () =
  ignore (Lazy.force fresh);
  let _, rows = Lazy.force golden in
  let now = Lazy.force entries in
  let names es = List.map (fun e -> e.name) es in
  if names rows <> names now then
    Alcotest.failf "ledger entries differ: golden [%s], now [%s]: %s"
      (String.concat " " (names rows)) (String.concat " " (names now)) (regenerate ());
  let grew = ref [] and shrank = ref false in
  List.iter2
    (fun (old : entry) (e : entry) ->
      let check what o w =
        if w > tolerance *. o then grew := Printf.sprintf "%s %s %.0f -> %.0f" e.name what o w :: !grew
        else if w < o then shrank := true
      in
      check "build" old.build e.build;
      check "run" old.run e.run)
    rows now;
  if !grew <> [] then
    Alcotest.failf "grew by more than 2 %%: %s; %s" (String.concat ", " (List.rev !grew)) (regenerate ());
  if !shrank then Printf.printf "some entries allocate less than the ledger: %s\n" (regenerate ())

let test_linear () =
  let now = Lazy.force entries in
  let find name n =
    match List.find_opt (fun e -> e.name = Printf.sprintf "%s/%d" name n) now with
    | Some e -> e
    | None -> Alcotest.failf "no ledger entry %s/%d" name n
  in
  List.iter
    (fun (fam : Family.t) ->
      let small = find fam.Family.name 256 and large = find fam.Family.name 2048 in
      List.iter
        (fun (what, words) ->
          let per_node e = words e /. float_of_int e.nodes in
          if per_node large > linear_factor *. per_node small then
            Alcotest.failf "%s %s words per node: %.0f at n = 2048 > %.2f x %.0f at n = 256" fam.Family.name what
              (per_node large) linear_factor (per_node small))
        [ ("build", fun e -> e.build); ("run", fun e -> e.run) ])
    Family.all

let () =
  Alcotest.run "alloc_ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "taken with this compiler" `Quick test_compiler;
          Alcotest.test_case "no entry grows by more than 2 %" `Quick test_no_growth;
          Alcotest.test_case "words per node linear in n" `Quick test_linear;
        ] );
    ]
