type rule = { id : string; summary : string }

let rules =
  [
    {
      id = Flow.rule_traversal;
      summary =
        "decision functions must not enumerate global graph state (Graph.edges / fold_edges / \
         iter_edges); use the per-node neighbor API";
    };
    {
      id = Flow.rule_flow;
      summary =
        "typed information-flow locality: no GraphGlobal-tainted value may reach a container \
         subscript inside a decision function, even through local slots, helpers or closures";
    };
    {
      id = Budget.rule_budget;
      summary =
        "a protocol's statically extracted record_prover/record_verifier schedule (with \
         sub-protocol runs expanded) must realize exactly the rounds and phase order its \
         declared-bounds registry row claims";
    };
    {
      id = "rng";
      summary =
        "no direct Random.* use outside lib/util/rng.ml (draw through the seeded Rng), no \
         module-level Rng streams (Domain-shared mutable state; derive per-trial streams inside \
         the worker), and under protocols/ and dip/ no seed arithmetic in Rng.create or ~seed: \
         and no literal Rng.split salt (name the stream)";
    };
    { id = "obj-magic"; summary = "no Obj.* unsafe casts" };
    {
      id = "poly-compare";
      summary =
        "no bare polymorphic compare, and no structural =/<> against list/record literals or on \
         Graph/Bits values; use typed comparisons (Int.compare, Graph.equal, Bits.equal) or a match";
    };
    {
      id = "partial";
      summary =
        "no unguarded partial stdlib calls (List.tl, List.combine, Option.get); destructure with \
         a pattern match";
    };
    {
      id = Refine.rule_budget;
      summary =
        "numeric refinement: every record_prover label width inferred by the interval/affine \
         pass must be provably within the declared proof-size envelope shape of the module's \
         bounds-registry row (per-expression findings name the inferred interval)";
    };
    {
      id = Refine.rule_index;
      summary =
        "numeric refinement: array/string/Bits subscripts in decision functions are re-proved \
         in bounds from inferred intervals, and every Bits.unsafe_sub call site must be \
         statically proved in range";
    };
    {
      id = Refine.rule_annotation;
      summary =
        "every (* dipp-refine: ... *) annotation must parse as `width <= FORM` or `value <= \
         FORM`; a malformed bound would silently assert nothing";
    };
    {
      id = Race.rule_shared;
      summary =
        "every mutable location domains can share (module-level, or captured by a closure \
         submitted to Pool.run/Pool.map/Domain.spawn) must be Atomic, accessed under one \
         consistent Mutex, or provably domain-local; trusted dipp-race annotations are \
         validated, not assumed";
    };
    {
      id = Race.rule_lock;
      summary =
        "exactly one guarding mutex per shared location, mutexes acquired in one global order \
         (no cycles, no re-entry), and no lock held across a Pool/Domain submission";
    };
    {
      id = Race.rule_determinism;
      summary =
        "shared accumulators mutated from pooled tasks only through the commutative/associative \
         Dip.merge_* algebra; order-dependent writes (list cons, Buffer.add_*, blind overwrites, \
         printing to a shared channel) are findings even under a lock";
    };
    {
      id = Race.rule_rng;
      summary =
        "an Rng stream captured by a pooled closure may only parent Rng.split/Rng.split_string \
         keyed by the task's own (seed, id, index); draws from a shared stream race on its state";
    };
    { id = "missing-mli"; summary = "every library module ships a .mli interface" };
    { id = "parse-error"; summary = "the file must parse with the project's compiler" };
    {
      id = "suppression";
      summary =
        "every token of a suppression (allow) comment must name a known rule id; a typo \
         would silently suppress nothing";
    };
  ]

(* ---- hygiene rules ---------------------------------------------------- *)

let rec path_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (p, _) | Longident.Lapply (p, _) -> path_head p

let is_partial_path lid =
  match Ast_scan.last_two lid with
  | Some ("List", ("tl" | "combine")) | Some ("Option", "get") -> true
  | Some _ -> false
  | None -> (match lid with Longident.Lident _ -> false | _ -> false)

let is_bare_compare lid =
  match lid with
  | Longident.Lident "compare" -> true
  | _ -> ( match Ast_scan.last_two lid with Some ("Stdlib", "compare") -> true | _ -> false)

(* Structural literals: comparing against these with polymorphic [=] is
   the [!rejecting = []] failure mode — a match (or List.is_empty) says
   the same thing totally and without structural comparison. *)
let is_structural_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident ("[]" | "::"); _ }, _) -> true
  | Pexp_record _ -> true
  | _ -> false

(* Bits functions with scalar results are safe to compare with [=]. *)
let scalar_bits = [ "length"; "to_int"; "to_string"; "get"; "equal"; "compare"; "popcount" ]

let structural_head (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Ast_scan.last_two txt with
      | Some ("Graph", (("neighbors" | "edges") as f)) -> Some ("Graph." ^ f)
      | Some ("Bits", f) when not (List.mem f scalar_bits) -> Some ("Bits." ^ f)
      | Some _ | None -> None)
  | _ -> None

(* A module-level binding holding a live Rng stream is shared by every
   domain that touches the module: concurrent draws race on its mutable
   state and break the engine's determinism contract (ANALYSIS.md).
   Streams built inside a function body are per-call and sanctioned. *)
let rng_stream_ctor f =
  match f with "create" | "split" | "split_string" -> true | _ -> false

let toplevel_rng_findings structure =
  let findings = ref [] in
  let scan_binding (vb : Parsetree.value_binding) =
    let found = ref None in
    let expr self (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> () (* per-call streams are fine *)
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) ->
          (match Ast_scan.last_two txt with
          | Some ("Rng", f) when rng_stream_ctor f -> (
              match !found with None -> found := Some loc | Some _ -> ())
          | Some _ | None -> ());
          Ast_iterator.default_iterator.expr self e
      | _ -> Ast_iterator.default_iterator.expr self e
    in
    let iter = { Ast_iterator.default_iterator with expr } in
    iter.expr iter vb.pvb_expr;
    match !found with
    | Some loc ->
        findings :=
          Report.finding ~loc ~rule:"rng"
            "module-level Rng stream is Domain-shared mutable state; derive a per-trial stream \
             (Rng.split / Rng.split_string) inside the function that consumes it"
          :: !findings
    | None -> ()
  in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter scan_binding vbs
      | _ -> ())
    structure;
  !findings

(* Coins by name: under protocols/ and dip/ every coin stream is named by
   its place in the reduction (Rng.derive, Rng.split_string).  Arithmetic
   on a seed, or a literal salt, is a hand-picked offset that another
   module's offsets can collide with. *)
let in_coin_scope filename =
  match Filename.basename (Filename.dirname filename) with "protocols" | "dip" -> true | _ -> false

let mentions p (e : Parsetree.expression) =
  let found = ref false in
  let expr self (e : Parsetree.expression) =
    if p e then found := true else Ast_iterator.default_iterator.expr self e
  in
  let iter = { Ast_iterator.default_iterator with expr } in
  iter.expr iter e;
  !found

let is_arith_op (f : Parsetree.expression) =
  match f.pexp_desc with Pexp_ident { txt = Longident.Lident ("+" | "-" | "*"); _ } -> true | _ -> false

let is_arith (e : Parsetree.expression) =
  match e.pexp_desc with Pexp_apply (f, _) -> is_arith_op f | _ -> false

(* A literal as the salt or as a term of its arithmetic ([1], [700 + v]);
   a subscript such as [back.(0)] is a node id, not an offset. *)
let rec literal_term (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _) -> true
  | Pexp_apply (f, args) when is_arith_op f ->
      List.exists (fun (_, a) -> literal_term a) args
  | _ -> false

let coin_offsets ~add (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let offset what =
        add ~loc:e.pexp_loc "rng"
          (Printf.sprintf
             "arithmetic in %s is a hand-picked seed offset; name the stream (Rng.derive seed \"<name>\")"
             what)
      in
      (match (Ast_scan.last_two txt, args) with
      | Some ("Rng", "create"), [ (Asttypes.Nolabel, a) ] when mentions is_arith a -> offset "an Rng.create seed"
      | Some ("Rng", "split"), [ _; (Asttypes.Nolabel, salt) ] when literal_term salt ->
          add ~loc:e.pexp_loc "rng"
            "integer literal in an Rng.split salt; split a named role stream (Rng.split_string rng \"<role>\") by node id"
      | _ -> ());
      List.iter
        (function
          | (Asttypes.Labelled "seed" | Asttypes.Optional "seed"), a when mentions is_arith a -> offset "a ~seed: argument"
          | _ -> ())
        args
  | _ -> ()

let hygiene ~filename structure =
  let findings = ref [] in
  let add ~loc rule msg = findings := Report.finding ~loc ~rule msg :: !findings in
  let in_rng_module = Filename.basename filename = "rng.ml" in
  let coins = in_coin_scope filename in
  let check_ident ~loc txt =
    let path = Ast_scan.ident_path txt in
    if path_head txt = "Obj" then
      add ~loc "obj-magic" (Printf.sprintf "`%s` defeats the type system; model the data instead" path);
    if path_head txt = "Random" && not in_rng_module then
      add ~loc "rng"
        (Printf.sprintf
           "direct `%s` breaks seeded reproducibility; draw through Rng (lib/util/rng.ml)" path);
    if is_partial_path txt then
      add ~loc "partial"
        (Printf.sprintf "`%s` raises on the empty case; destructure with a pattern match" path);
    if is_bare_compare txt then
      add ~loc "poly-compare"
        "bare polymorphic `compare`; use a typed comparison (Int.compare, String.compare, a \
         record-aware comparator, ...)"
  in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ~loc txt
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>" | "==" | "!=") as op); _ }; _ },
          [ (_, a); (_, b) ] ) ->
        if is_structural_literal a || is_structural_literal b then
          add ~loc:e.pexp_loc "poly-compare"
            (Printf.sprintf
               "structural `%s` against a list/record literal; pattern-match (or List.is_empty) \
                instead" op)
        else (
          match (structural_head a, structural_head b) with
          | Some p, _ | _, Some p ->
              add ~loc:e.pexp_loc "poly-compare"
                (Printf.sprintf
                   "structural `%s` on the result of `%s`; use the module's own equality \
                    (Graph.equal, Bits.equal, ...)"
                   op p)
          | None, None -> ())
    | _ -> ());
    if coins then coin_offsets ~add e;
    Ast_iterator.default_iterator.expr self e
  in
  let iter = { Ast_iterator.default_iterator with expr } in
  iter.structure iter structure;
  !findings @ if in_rng_module then [] else toplevel_rng_findings structure

(* ---- entry points ----------------------------------------------------- *)

let parse_error_finding ~filename exn =
  let loc =
    match exn with
    | Syntaxerr.Error err -> Syntaxerr.location_of_error err
    | Lexer.Error (_, loc) -> loc
    | _ -> Location.in_file filename
  in
  Report.finding ~loc ~rule:"parse-error" (Printexc.to_string exn)

(* Budget pass context from the file's location: its registry row (keyed
   by module basename) and whether a row is mandatory (every recording
   protocol under lib/protocols or lib/baselines must declare bounds;
   lib/dip sub-protocols and test fixtures are exempt). *)
let budget_declared filename =
  let base = Filename.remove_extension (Filename.basename filename) in
  Option.map
    (fun (r : Dipp_protocols.Bounds.row) ->
      {
        Budget.id = r.id;
        rounds = r.rounds;
        schedule =
          List.map
            (function
              | Dipp_dip.Dip.Prover_phase -> Budget.P
              | Dipp_dip.Dip.Verifier_phase -> Budget.V)
            r.schedule;
      })
    (Dipp_protocols.Bounds.find base)

let budget_required filename =
  match Filename.basename (Filename.dirname filename) with
  | "protocols" | "baselines" -> true
  | _ -> false

(* The refine-budget envelope for a file: the symbolic shape of its
   registry row, if it has one. *)
let refine_declared filename =
  let base = Filename.remove_extension (Filename.basename filename) in
  Option.map
    (fun (r : Dipp_protocols.Bounds.row) -> Refine.envelope_of_shape r.shape)
    (Dipp_protocols.Bounds.find base)

let ast_findings ~program (file : Typed_scan.file) =
  let filename = file.path in
  match file.parsed with
  | Ok structure ->
      let budget =
        Budget.check_structure ~program
          ?declared:(budget_declared filename)
          ~require_declared:(budget_required filename)
          ~filename structure
      in
      let annots = Refine.annotations_of_source file.text in
      let refine =
        Refine.annotation_findings ~filename annots
        @ (Refine.analyze ~program ~annots ?declared:(refine_declared filename) ~filename structure)
            .findings
      in
      let rannots = Race.annotations_of_source file.text in
      let race =
        Race.annotation_findings ~filename rannots
        @ (Race.analyze ~program ~annots:rannots ~filename structure).findings
      in
      Flow.check ~program structure @ budget @ refine @ race @ hygiene ~filename structure
  | Error exn -> [ parse_error_finding ~filename exn ]

(* Applied after filtering, so a typo'd allow list cannot silence its
   own warning. *)
let validate_suppressions ~filename supp =
  let known = "all" :: List.map (fun r -> r.id) rules in
  List.concat_map
    (fun (line, tokens) ->
      List.filter_map
        (fun tok ->
          if List.exists (String.equal tok) known then None
          else
            Some
              {
                Report.file = filename;
                line;
                col = 0;
                rule = "suppression";
                msg =
                  Printf.sprintf
                    "allow comment names unknown rule `%s` and suppresses nothing (try \
                     --list-rules)"
                    tok;
              })
        tokens)
    (Ast_scan.suppression_entries supp)

let apply_suppressions ~filename supp findings =
  List.filter
    (fun (f : Report.finding) -> not (Ast_scan.suppressed supp ~line:f.line ~rule:f.rule))
    findings
  @ validate_suppressions ~filename supp

(* The missing-mli check needs the file on disk, so only the paths
   driver runs it. *)
let lint ~program ~check_mli (file : Typed_scan.file) =
  let mli =
    if check_mli && not (Sys.file_exists (file.path ^ "i")) then
      [
        {
          Report.file = file.path;
          line = 1;
          col = 0;
          rule = "missing-mli";
          msg = "module has no .mli interface; write one to pin the public surface";
        };
      ]
    else []
  in
  apply_suppressions ~filename:file.path
    (Ast_scan.suppressions_of_source file.text)
    (mli @ ast_findings ~program file)

let lint_source ~filename src =
  let program = Typed_scan.of_sources [ (filename, src) ] in
  List.concat_map (lint ~program ~check_mli:false) (Typed_scan.files program)

(* One program over every root, so the flow analysis and the budget and
   refinement passes resolve qualified calls across all their modules. *)
let lint_paths roots =
  let program = Typed_scan.load_files (Ast_scan.ml_files roots) in
  List.concat_map (lint ~program ~check_mli:true) (Typed_scan.files program)
