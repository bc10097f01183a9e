(* Experiment harness: regenerates the paper's "tables" (its theorem
   bounds) as measured numbers.  See EXPERIMENTS.md for the paper-vs-
   measured record of every experiment.

   Usage:
     dune exec bench/main.exe            all experiments
     dune exec bench/main.exe e1 .. e11  a single experiment
     dune exec bench/main.exe bounds     claim-vs-measured bounds_report.json
     dune exec bench/main.exe -- trials [--jobs N]
                                         engine soundness trials + trials_report.json
     dune exec bench/main.exe -- faults [--jobs N]
                                         fault-injection sweep + faults_report.json
   Unknown commands or flags exit with code 2 and a usage message.

   The honest sweeps (E1, E3-E5, E7, E8) and the bounds report are rows
   of one [scaling] table run through {!Family.honest}, so bounds reuses
   the sweeps' label-cache entries; E2-E8, E10 and [trials] share one
   memo of engine results keyed by spec id.  --jobs N (or DIPP_JOBS=N)
   picks the worker-domain count and DIPP_TRIALS_SEED the experiment
   seed; the outcome is bit-identical for every N. *)

open Dipp

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ---- trial-engine front end ---------------------------------------- *)

let jobs_override = ref None
let jobs () = match !jobs_override with Some j -> j | None -> Pool.default_jobs ()

let trials_seed () =
  match Sys.getenv_opt "DIPP_TRIALS_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some v -> v | None -> 42)
  | None -> 42

(* Engine results by spec id.  Outcomes are a pure function of (seed, id,
   index) and seed and jobs are fixed for the invocation, so a memoised
   result is the one a fresh run would give. *)
let engine_memo : (string, Engine.result) Hashtbl.t = Hashtbl.create 64

let run_specs specs =
  List.map
    (fun (spec : Engine.Spec.t) ->
      match Hashtbl.find_opt engine_memo spec.Engine.Spec.id with
      | Some r -> r
      | None ->
          let r = Engine.run ~jobs:(jobs ()) ~seed:(trials_seed ()) spec in
          Hashtbl.replace engine_memo spec.Engine.Spec.id r;
          r)
    specs

let spec_result id =
  match Soundness.find id with
  | Some spec -> List.hd (run_specs [ spec ])
  | None -> failwith ("bench: no soundness spec " ^ id)

let print_engine_results results =
  Printf.printf "%-26s %-16s %6s %8s %9s %7s %18s\n" "spec" "adversary" "n" "trials" "rejected"
    "rate" "95% CI";
  List.iter
    (fun r ->
      let lo, hi = Engine.wilson95 ~rejected:r.Engine.rejected ~total:r.Engine.completed in
      Printf.printf "%-26s %-16s %6d %8d %9d %6.1f%% [%6.4f, %6.4f]\n" r.Engine.spec.Engine.Spec.id
        r.Engine.spec.Engine.Spec.adversary r.Engine.spec.Engine.Spec.n r.Engine.completed
        r.Engine.rejected
        (100. *. Engine.rejection_rate r)
        lo hi)
    results;
  Printf.printf "engine: seed=%d jobs=%d\n" (trials_seed ()) (jobs ())

let out_path var default = Option.value (Sys.getenv_opt var) ~default

(* ---- the honest scaling table -------------------------------------- *)

(* One row per scaling experiment: the family instance at each size
   [n] from [gseed], run from [seed].  [bounds_sizes] are the sizes the
   bounds report instantiates; [baseline] is a one-round PLS (its bounds
   row id and its stats on the same instance). *)
type scaling = {
  family : Family.t;
  gseed : int;
  seed : int;
  sizes : int list;
  bounds_sizes : int list;
  baseline : (string * (n:int -> gseed:int -> Dip.stats)) option;
}

let scaling ?baseline family ~gseed ~seed ~bounds sizes =
  { family; gseed; seed; sizes; bounds_sizes = bounds; baseline }

let pls_lr ~n ~gseed =
  let path, arcs = Gen.lr_yes ~n gseed in
  let pls = Pls_lr_sorting.run { Lr_sorting.n; path; arcs } in
  assert pls.Pls_lr_sorting.verdict.Dip.accepted;
  pls.Pls_lr_sorting.stats

let pls_po ~n ~gseed =
  let g, w = Gen.path_outerplanar ~n gseed in
  let pls = Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w } in
  pls.Pls_path_outerplanar.stats

let e1_row =
  scaling Family.lr ~gseed:42 ~seed:1 ~baseline:("pls_lr_sorting", pls_lr)
    [ 256; 1024; 4096; 16384; 65536; 262144 ] ~bounds:[ 256; 4096; 65536 ]

let e3_row =
  scaling Family.path_outerplanarity ~gseed:11 ~seed:2 ~baseline:("pls_path_outerplanar", pls_po)
    [ 256; 1024; 4096; 16384 ] ~bounds:[ 256; 4096 ]

(* outerplanarity and treewidth2 build n / 8 blocks *)
let e4_row =
  scaling Family.outerplanarity ~gseed:3 ~seed:1 [ 32; 128; 512; 2048 ] ~bounds:[ 32; 512 ]

let e5_row = scaling Family.planar_embedding ~gseed:5 ~seed:1 [ 64; 256; 1024 ] ~bounds:[ 64; 256 ]

let e7_row =
  scaling Family.series_parallel ~gseed:3 ~seed:1 [ 16; 64; 256; 1024 ] ~bounds:[ 64; 256 ]

let e8_row = scaling Family.treewidth2 ~gseed:3 ~seed:1 [ 32; 128; 512 ] ~bounds:[ 32; 128 ]

let measure row n =
  let inst = row.family.Family.build ~n ~gseed:row.gseed in
  let verdict, stats = Family.honest row.family inst ~seed:row.seed in
  assert verdict.Dip.accepted;
  (inst, stats)

let print_scaling row () =
  Printf.printf "%8s %8s %8s %10s %10s %10s %8s\n" "n" "nodes" "log2 n" "loglog n" "DIP bits"
    "PLS bits" "rounds";
  List.iter
    (fun n ->
      let inst, stats = measure row n in
      let pls =
        match row.baseline with
        | Some (_, run) -> string_of_int (run ~n ~gseed:row.gseed).Dip.proof_size_bits
        | None -> "-"
      in
      let log2n = Bounds.ceil_log2 inst.Family.nodes in
      Printf.printf "%8d %8d %8d %10.2f %10d %10s %8d\n" n inst.Family.nodes log2n
        (log (float_of_int log2n) /. log 2.)
        stats.Dip.proof_size_bits pls stats.Dip.interaction_rounds)
    row.sizes

(* E6's named planarity instances, of growing maximum degree *)
let grid n = Gen.planar_bounded_degree ~n 1
let stacked n = Gen.planar ~n 1

let wheel n =
  Graph.create ~n
    (List.init (n - 1) (fun i -> (0, i + 1))
    @ List.init (n - 2) (fun i -> (i + 1, i + 2))
    @ [ (n - 1, 1) ])

let planarity_stats g =
  let r = Planarity.run ~seed:1 ~prover:Planarity.Honest { Planarity.graph = g } in
  assert r.Planarity.verdict.Dip.accepted;
  r.Planarity.stats

let e6_table () =
  Printf.printf "%-24s %8s %8s %12s %10s\n" "family" "n" "Delta" "proof bits" "rho bits";
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun n ->
          let g = gen n in
          let stats = planarity_stats g in
          (* the rho part of the round-1 label: forest setup plus one
             (rho_u, rho_v) pair of width log Delta per forest field *)
          let el = Edge_labels.create g in
          let rho_bits =
            Edge_labels.setup_width el
            + (Edge_labels.forests el * 2 * Bounds.ceil_log2 (Graph.max_degree g))
          in
          Printf.printf "%-24s %8d %8d %12d %10d\n" name (Graph.n g) (Graph.max_degree g)
            stats.Dip.proof_size_bits rho_bits)
        [ 256; 1024 ])
    [ ("grid+diagonals", grid); ("stacked triangulation", stacked); ("wheel (Delta = n-1)", wheel) ]

(* ------------------------------------------------------------------ *)

(* An experiment built from its engine soundness rows: its own table
   first (a scaling row, E6's named graphs, or none), then the rows, then
   the closing notes.  The command name is the lowercased tag and the
   usage line is the title. *)
let experiment tag title table notes =
  ( String.lowercase_ascii tag,
    title,
    fun () ->
      header (Printf.sprintf "%-3s %s" tag title);
      table ();
      (match run_specs (Soundness.by_experiment tag) with [] -> () | rs -> print_engine_results rs);
      List.iter print_endline notes )

let e9 () =
  header "E9  One-round lower bound (Thm 1.8): Omega(log n) label bits";
  Printf.printf "%8s %10s %22s %22s\n" "n" "log2 n" "soundness threshold" "completeness threshold";
  List.iter
    (fun n ->
      Printf.printf "%8d %10d %22d %22d\n" n (Bounds.ceil_log2 n)
        (Lower_bound.soundness_threshold ~n)
        (Lower_bound.completeness_threshold ~n))
    [ 64; 256; 1024; 4096; 16384; 65536 ];
  print_endline "soundness: below the threshold the truncated 1-round scheme accepts a";
  print_endline "  fooling LR no-instance (a backward arc whose labels alias to increasing";
  print_endline "  residues); completeness: below it the truncated FFM+21-style scheme";
  print_endline "  rejects an honest long-chord yes-instance.  Both track ceil(log2 n)."

(* The results table is a view of the engine rows: completeness, rounds
   and proof bits from each experiment's pooled honest row, soundness
   from one adversary per protocol. *)
let e10 () =
  header "E10 Results table (Thms 1.2-1.7): rounds / bits / completeness / soundness";
  Printf.printf "%-22s %6s %10s %15s %18s %17s\n" "protocol" "rounds" "proof bits" "completeness"
    "soundness" "95% CI";
  List.iter
    (fun (tag, name, adversary) ->
      let honest = spec_result (tag ^ "/honest/pooled") and cheat = spec_result adversary in
      let rounds, bits =
        match honest.Engine.envelope with
        | Some s -> (s.Dip.interaction_rounds, s.Dip.proof_size_bits)
        | None -> (0, 0)
      in
      let lo, hi = Engine.wilson95 ~rejected:cheat.Engine.rejected ~total:cheat.Engine.completed in
      Printf.printf "%-22s %6d %10d %6d/%-3d %3.0f%% %7d/%-3d %5.1f%% [%6.4f, %6.4f]\n" name
        rounds bits
        (honest.Engine.completed - honest.Engine.rejected)
        honest.Engine.completed
        (100. *. (1. -. Engine.rejection_rate honest))
        cheat.Engine.rejected cheat.Engine.completed
        (100. *. Engine.rejection_rate cheat)
        lo hi)
    [
      ("e2", "LR-sorting (L4.1)", "e2/forge-pairs/c3");
      ("e3", "path-outerpl. (T1.2)", "e3/crossing-sweep");
      ("e4", "outerplanarity (T1.3)", "e4/component-cheat");
      ("e5", "planar embed. (T1.4)", "e5/corrupted-rotation");
      ("e6", "planarity (T1.5)", "e6/best-rotation");
      ("e7", "series-par. (T1.6)", "e7/ear-cheat");
      ("e8", "treewidth<=2 (T1.7)", "e8/component-cheat");
    ];
  print_endline "completeness: accepted/trials of the pooled honest row; soundness:";
  print_endline "  rejected/trials of the adversary row (trials_report.json has both).";
  print_endline "paper: 5 rounds, perfect completeness, 1/polylog(n) soundness error,";
  print_endline "       O(log log n) bits (planarity: + log Delta)."

let e11 () =
  header "E11 Reduction chart (Figure 2): composed sub-protocol traces";
  let g = Gen.planar ~n:100 4 in
  let r = Planarity.run ~seed:9 ~prover:Planarity.Honest { Planarity.graph = g } in
  let pe = r.Planarity.inner in
  let po = pe.Planar_embedding.inner in
  Printf.printf "planarity(T1.5)  n=%d  proof=%db  accepted=%b\n" (Graph.n g)
    r.Planarity.stats.Dip.proof_size_bits r.Planarity.verdict.Dip.accepted;
  Printf.printf "  -> planar-embedding(T1.4)  proof=%db\n" pe.Planar_embedding.stats.Dip.proof_size_bits;
  Printf.printf "     -> path-outerplanarity(T1.2) on h(G,T,rho)  proof=%db\n"
    po.Path_outerplanarity.stats.Dip.proof_size_bits;
  (match po.Path_outerplanarity.lr with
  | Some lr ->
      Printf.printf "        -> LR-sorting(L4.2)  n_h=%d  proof=%db  blocks=%d\n"
        lr.Lr_sorting.params.Lr_sorting.Params.n lr.Lr_sorting.stats.Dip.proof_size_bits
        lr.Lr_sorting.params.Lr_sorting.Params.nblocks
  | None -> print_endline "        -> (no LR sub-run)");
  let g = Gen.outerplanar ~blocks:3 2 in
  let r = Outerplanarity.run ~seed:9 ~prover:Outerplanarity.Honest { Outerplanarity.graph = g } in
  Printf.printf "outerplanarity(T1.3)  n=%d  block protocols=%d  accepted=%b\n" (Graph.n g)
    (List.length r.Outerplanarity.component_results) r.Outerplanarity.verdict.Dip.accepted;
  let g = Gen.treewidth2 ~blocks:3 2 in
  let r = Treewidth2_dip.run ~seed:9 ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = g } in
  Printf.printf "treewidth<=2(T1.7)  n=%d  SP components=%d  accepted=%b\n" (Graph.n g)
    (List.length r.Treewidth2_dip.component_results) r.Treewidth2_dip.verdict.Dip.accepted;
  List.iteri
    (fun i cr ->
      Printf.printf "  -> series-parallel(T1.6) #%d: host-ear nesting runs=%d\n" i
        (List.length cr.Series_parallel_dip.host_results))
    r.Treewidth2_dip.component_results

(* ------------------------------------------------------------------ *)
(* Open questions (paper, end of section 1)                             *)
(* ------------------------------------------------------------------ *)

let open_questions () =
  header "OQ  Open questions: per-round communication breakdown";
  print_endline "Open Question 3 asks whether o(log log n) bits per node are possible;";
  print_endline "the per-phase maxima below show where our labels spend their bits:";
  Printf.printf "%8s | %s\n" "n" "per-phase max label bits (P = prover, V = verifier coins)";
  List.iter
    (fun n ->
      let _, stats = measure e1_row n in
      let cells =
        List.map
          (fun (ph, bits) ->
            Printf.sprintf "%s%d" (match ph with Dip.Prover_phase -> "P" | Dip.Verifier_phase -> "V") bits)
          stats.Dip.per_phase
      in
      Printf.printf "%8d | %s\n" n (String.concat "  " cells))
    [ 1024; 16384; 262144 ];
  print_endline "";
  print_endline "Open Question 1 (is the +log Delta term needed for planarity?): see the";
  print_endline "rho-bits column of E6 — exactly the term in question.";
  print_endline "Open Question 2 (rounds 2..4): the protocols here are locked to the";
  print_endline "5-round schedule P-V-P-V-P; every phase carries live content (above),";
  print_endline "so collapsing rounds would need a different commitment structure."

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "A1  Ablation: soundness constant c (field sizes ~ (log n)^c)";
  Printf.printf "%4s %12s %12s %14s\n" "c" "proof bits" "field p" "escapes/60";
  List.iter
    (fun c ->
      let n = 300 in
      let path, arcs = Gen.lr_yes ~n 42 in
      let r = Lr_sorting.run ~seed:1 ~c ~prover:Lr_sorting.Honest { Lr_sorting.n; path; arcs } in
      let escapes = ref 0 in
      for seed = 0 to 59 do
        let path, arcs = Gen.lr_no ~n seed in
        let rr = Lr_sorting.run ~seed:((seed * 13) + 1) ~c ~prover:Lr_sorting.Shift_positions { Lr_sorting.n; path; arcs } in
        if rr.Lr_sorting.verdict.Dip.accepted then incr escapes
      done;
      Printf.printf "%4d %12d %12d %14d\n" c r.Lr_sorting.stats.Dip.proof_size_bits
        r.Lr_sorting.params.Lr_sorting.Params.p.Fp.p !escapes)
    [ 1; 2; 3; 4; 5 ];
  print_endline "larger c: wider fields (more bits), smaller soundness error.";

  header "A2  Ablation: block size B (paper: B = ceil(log n))";
  Printf.printf "%10s %10s %12s %10s\n" "block" "nblocks" "proof bits" "accepted";
  let n = 4096 in
  let path, arcs = Gen.lr_yes ~n 42 in
  let inst = { Lr_sorting.n; path; arcs } in
  let logn = Bounds.ceil_log2 n in
  List.iter
    (fun block ->
      let r = Lr_sorting.run ~seed:1 ~c:2 ~block ~prover:Lr_sorting.Honest inst in
      Printf.printf "%10d %10d %12d %10b\n" block r.Lr_sorting.params.Lr_sorting.Params.nblocks
        r.Lr_sorting.stats.Dip.proof_size_bits r.Lr_sorting.verdict.Dip.accepted)
    [ logn; 2 * logn; 64; logn * logn ];
  print_endline "indices inside a block cost log(B) bits: B = log n is the sweet spot";
  print_endline "(B below log n cannot hold the position bits at all).";

  header "A3  Ablation: spanning-tree verification repetitions (Lemma 2.5)";
  Printf.printf "%6s %14s %16s\n" "reps" "label bits/rep" "escapes/100";
  List.iter
    (fun reps ->
      let escapes = ref 0 in
      for seed = 0 to 99 do
        let g = Graph.path_graph 40 in
        let parent = Array.init 40 (fun v -> if v = 0 || v = 20 then -1 else v - 1) in
        let verdict, _ = Spanning_tree_verify.run ~seed ~reps g ~parent in
        if verdict.Dip.accepted then incr escapes
      done;
      Printf.printf "%6d %14d %16d\n" reps 8 !escapes)
    [ 1; 2; 4; 8 ];
  print_endline "constant error per repetition, driven down exponentially (the paper's";
  print_endline "parallel-repetition black box); the protocols use Theta(log log n) reps."

(* ------------------------------------------------------------------ *)

(* The claim-vs-measured record: every declared-bounds registry row
   (lib/protocols/bounds.ml) instantiated at concrete sizes, checked
   with Dip.check_budget against a real honest run, and written as
   bounds_report.json (override the path with DIPP_BOUNDS_OUT) for CI
   to archive and diff. *)
(* Static refinement interval for a registry row: the refine pass
   (lib/analysis/refine.ml) run over the protocol's source, giving
   symbolic bounds on the widest single own-phase record_prover label.
   Evaluated at each concrete instance size this is the "inferred"
   column between the claimed envelope and the measured proof size.
   Note it bounds the per-phase label width, not the parallel-composition
   sum Dip.check_budget measures — sub-protocol sums stay a runtime
   matter, so inferred <= claimed while measured may exceed inferred. *)
let refine_program =
  lazy
    (Dipp_analysis.Typed_scan.load_files
       (if Sys.file_exists "lib" then Dipp_analysis.Ast_scan.ml_files [ "lib" ] else []))

let refine_interval =
  let cache = Hashtbl.create 16 in
  fun id ->
    match Hashtbl.find_opt cache id with
    | Some r -> r
    | None ->
        let program = Lazy.force refine_program in
        let r =
          List.find_map
            (fun path ->
              match Dipp_analysis.Typed_scan.find_file program path with
              | Some { Dipp_analysis.Typed_scan.parsed = Ok structure; text; _ } ->
                  let annots = Dipp_analysis.Refine.annotations_of_source text in
                  let res = Dipp_analysis.Refine.analyze ~program ~annots ~filename:path structure in
                  Some (res.Dipp_analysis.Refine.label_lo, res.Dipp_analysis.Refine.label_hi)
              | Some _ | None -> None)
            [ "lib/protocols/" ^ id ^ ".ml"; "lib/baselines/" ^ id ^ ".ml" ]
        in
        Hashtbl.replace cache id r;
        r

let bounds () =
  header "BOUNDS  declared budgets (Theorems 1.2-1.8) vs measured honest runs";
  let json = Buffer.create 8192 and rows = ref 0 and violated = ref 0 in
  let record ~id ~n ~delta (stats : Dip.stats) =
    let row =
      match Bounds.find id with
      | Some row -> row
      | None -> failwith ("bounds experiment: no registry row for " ^ id)
    in
    let b = Bounds.budget row ~n ~delta in
    let violations =
      List.map (Format.asprintf "%a" Dip.pp_budget_violation) (Dip.check_budget b stats)
    in
    let inferred =
      let ev f = Option.join (Option.map (Dipp_analysis.Refine.eval_form ~n ~delta) f) in
      Option.map (fun (lo, hi) -> (ev lo, ev hi)) (refine_interval id)
    in
    let show none = function Some v -> string_of_int v | None -> none in
    Printf.printf "%-22s %-28s %7d %5d %9d %12s %10d  %s\n" row.Bounds.id row.Bounds.theorem n delta
      b.Dip.budget_proof_bits
      (match inferred with
      | Some (lo, hi) -> Printf.sprintf "[%s, %s]" (show "?" lo) (show "?" hi)
      | None -> "-")
      stats.Dip.proof_size_bits
      (match violations with [] -> "ok" | _ :: _ -> "CLAIM VIOLATED");
    let phases s = Json.escape (Format.asprintf "%a" Dip.pp_phases s) in
    Printf.bprintf json
      "%s\n\
      \  {\"protocol\": \"%s\", \"theorem\": \"%s\", \"family\": \"%s\", \"n\": %d, \
       \"delta\": %d,\n\
      \   \"claimed\": {\"rounds\": %d, \"schedule\": \"%s\", \"proof_bits\": %d, \
       \"floor_bits\": %d},\n\
      \   \"inferred\": %s,\n\
      \   \"measured\": {\"rounds\": %d, \"schedule\": \"%s\", \"proof_bits\": %d},\n\
      \   \"violations\": [%s], \"claim_violated\": %b}"
      (if !rows = 0 then "" else ",")
      (Json.escape row.Bounds.id) (Json.escape row.Bounds.theorem) (Json.escape row.Bounds.family) n
      delta b.Dip.budget_rounds (phases b.Dip.budget_schedule) b.Dip.budget_proof_bits
      b.Dip.budget_floor_bits
      (match inferred with
      | Some (lo, hi) ->
          Printf.sprintf "{\"label_lo\": %s, \"label_hi\": %s}" (show "null" lo) (show "null" hi)
      | None -> "null")
      stats.Dip.interaction_rounds (phases stats.Dip.phases) stats.Dip.proof_size_bits
      (String.concat ", " (List.map (fun v -> "\"" ^ Json.escape v ^ "\"") violations))
      (match violations with [] -> false | _ :: _ -> true);
    incr rows;
    match violations with [] -> () | _ :: _ -> incr violated
  in
  let record_row row =
    List.iter
      (fun n ->
        let inst, stats = measure row n in
        let nodes = inst.Family.nodes in
        (* the LR-sorting network is the path *)
        let delta =
          if row.family == Family.lr then 2 else Graph.max_degree (inst.Family.graph ())
        in
        record ~id:row.family.Family.protocol ~n:nodes ~delta stats;
        Option.iter
          (fun (id, run) -> record ~id ~n:nodes ~delta (run ~n ~gseed:row.gseed))
          row.baseline)
      row.bounds_sizes
  in
  Printf.printf "%-22s %-28s %7s %5s %9s %12s %10s\n" "protocol" "theorem" "n" "delta" "claimed"
    "inferred" "measured";
  List.iter record_row [ e1_row; e3_row; e4_row; e5_row ];
  List.iter
    (fun g -> record ~id:"planarity" ~n:(Graph.n g) ~delta:(Graph.max_degree g) (planarity_stats g))
    [ grid 256; stacked 256 ];
  List.iter record_row [ e7_row; e8_row ];
  let g = stacked 256 in
  record ~id:"pls_spanning_tree" ~n:(Graph.n g) ~delta:(Graph.max_degree g)
    (Pls_spanning_tree.run g ~parent:(Traversal.tree_parent g 0)).Pls_spanning_tree.stats;
  let out = out_path "DIPP_BOUNDS_OUT" "bounds_report.json" in
  Out_channel.with_open_bin out (fun oc -> output_string oc ("[" ^ Buffer.contents json ^ "\n]\n"));
  Printf.printf "\nwrote %s: %d rows, %d with violated claims\n" out !rows !violated

(* The full soundness table on the engine, plus the machine-readable
   record (trials_report.json; DIPP_TRIALS_OUT overrides the path).  The
   JSON carries no timing, so it is byte-identical for every --jobs value
   (ANALYSIS.md, determinism contract). *)
let trials () =
  header "TRIALS  engine soundness record (E2-E8) -> trials_report.json";
  Label_cache.reset ();
  let seed = trials_seed () in
  let results = run_specs Soundness.specs in
  print_engine_results results;
  let out = out_path "DIPP_TRIALS_OUT" "trials_report.json" in
  Engine.write_report ~path:out ~seed results;
  Printf.printf "wrote %s: %d experiments\n" out (List.length results);
  (* stdout only: the JSON stays byte-identical with the cache on or off *)
  print_endline (Label_cache.report ())

(* The fault-injection sweep on the network runtime (lib/net): every
   default protocol family executed across the fault-model grid, with the
   byte-identical-across---jobs faults_report.json record (DIPP_FAULTS_OUT
   overrides the path, DIPP_FAULTS_TRIALS the per-point trial count). *)
let faults () =
  header "FAULTS  acceptance under network faults (lib/net) -> faults_report.json";
  Label_cache.reset ();
  let seed = trials_seed () in
  let sw = Fault_sweep.default_sweep () in
  let points = Fault_sweep.run_sweep ~jobs:(jobs ()) ~seed sw in
  Fault_sweep.print_table points;
  let out = out_path "DIPP_FAULTS_OUT" "faults_report.json" in
  Fault_sweep.write_report ~path:out ~seed points;
  Printf.printf "wrote %s: %d sweep points (seed=%d jobs=%d trials/point=%d)\n" out
    (List.length points) seed (jobs ()) sw.Fault_sweep.trials;
  (* stdout only: the JSON stays byte-identical with the cache on or off *)
  print_endline (Label_cache.report ())

(* The one command table: execution order, dispatch, and the usage text
   all come from this list, so a new experiment needs exactly one row. *)
let commands =
  [
    experiment "E1" "LR-sorting: proof size scaling (Lemma 4.1 vs trivial 1-round PLS)"
      (print_scaling e1_row)
      [
        "shape: the DIP column grows like log log n (a few bits per quadrupling);";
        "       the PLS column is exactly ceil(log2 n).";
      ];
    experiment "E2" "LR-sorting: empirical soundness (paper: error 1/polylog n)" ignore [];
    experiment "E3" "Path-outerplanarity (Thm 1.2): size scaling + soundness"
      (print_scaling e3_row) [];
    experiment "E4" "Outerplanarity (Thm 1.3): block-cut composition" (print_scaling e4_row) [];
    experiment "E5" "Embedded planarity (Thm 1.4): the h(G,T,rho) reduction"
      (print_scaling e5_row) [];
    experiment "E6" "Planarity (Thm 1.5): O(log log n + log Delta) proof size" e6_table
      [
        "shape: within a family bits grow like log log n; the rho column grows";
        "       like log Delta across families (the additive term of Thm 1.5).";
      ];
    experiment "E7" "Series-parallel (Thm 1.6)" (print_scaling e7_row) [];
    experiment "E8" "Treewidth <= 2 (Thm 1.7)" (print_scaling e8_row) [];
    ("e9", "one-round lower bound thresholds (Thm 1.8)", e9);
    ("e10", "results table: rounds/bits/completeness/soundness", e10);
    ("e11", "reduction chart (Figure 2) sub-protocol traces", e11);
    ("ablation", "design-choice ablations A1-A3", ablation);
    ("open-questions", "per-round communication breakdown", open_questions);
    ("bounds", "claim-vs-measured bounds_report.json", bounds);
    ("trials", "engine soundness trials -> trials_report.json", trials);
    ("faults", "fault-injection sweep -> faults_report.json", faults);
  ]

let find_command p =
  let p = String.lowercase_ascii p in
  List.find_opt (fun (name, _, _) -> String.equal name p) commands

let usage oc =
  output_string oc "usage: main.exe [--jobs N] [COMMAND ...]\ncommands:\n";
  List.iter (fun (name, doc, _) -> Printf.fprintf oc "  %-16s %s\n" name doc) commands;
  output_string oc "with no COMMAND, every experiment runs in order (see EXPERIMENTS.md).\n"

let usage_error msg =
  prerr_endline msg;
  usage stderr;
  exit 2

let () =
  (* peel --jobs N (anywhere) off the experiment picks; any other flag is
     an error (exit 2, the usage-error code shared with lib/analysis/cli) *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            jobs_override := Some j;
            parse acc rest
        | Some _ | None -> usage_error ("--jobs expects a positive integer (got " ^ v ^ ")"))
    | [ "--jobs" ] -> usage_error "--jobs expects a positive integer"
    | ("--help" | "-h") :: _ ->
        usage stdout;
        exit 0
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
        usage_error ("unknown flag " ^ flag)
    | p :: rest -> parse (p :: acc) rest
  in
  let picks = parse [] (List.tl (Array.to_list Sys.argv)) in
  (* reject any unknown command before running anything *)
  let unknown = List.filter (fun p -> Option.is_none (find_command p)) picks in
  (match unknown with
  | [] -> ()
  | _ :: _ ->
      usage_error (String.concat "\n" (List.map (fun p -> "unknown command " ^ p) unknown)));
  match picks with
  | _ :: _ ->
      List.iter (fun p -> match find_command p with Some (_, _, f) -> f () | None -> ()) picks
  | [] -> List.iter (fun (_, _, f) -> f ()) commands
