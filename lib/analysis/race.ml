(* dipp-race: static domain-safety and determinism analyzer.

   The multicore layers (lib/engine, lib/trace) promise byte-identical
   reports for any DIPP_JOBS; until now that promise was enforced only by
   convention.  This pass makes it a lint-time obligation, in four rules:

   - [race-shared-mut]: every mutable location that domains can share —
     a module-level binding (callers may be pooled) or a local captured
     by a closure submitted to Pool.run / Pool.map / Domain.spawn — must
     be Atomic, accessed under one consistent Mutex (lockset inference),
     or provably domain-local (e.g. a task-indexed array cell whose
     index is the task's own).
   - [race-lock-discipline]: one guarding mutex per shared location, a
     global acquisition order (no cycles), no re-entry, and no lock held
     across a Pool/Domain submission.
   - [race-determinism]: shared accumulators may be updated from pooled
     tasks only through commutative/associative merges (the Dip.merge_*
     algebra, +, land, max, ...); order-dependent writes — list cons,
     Buffer.add_*, blind overwrites, printing to a shared channel —
     are findings even under a lock, because the result then depends on
     task completion order.
   - [race-rng]: an Rng stream captured by a pooled task may only be
     used as the parent of Rng.split / Rng.split_string keyed by the
     task's own identity (split reads only the immutable seed; drawing
     mutates shared state).

   Trusted dipp-race annotations (guarded-by M | domain-local |
   merge-only, on the binding's line or the line above — see race.mli
   for the exact comment syntax) are the axioms of the pass and are
   validated: malformed ones, guarded-by claims naming no mutex, and
   annotations attached to nothing are findings.

   Approximations (documented in ANALYSIS.md): reachability through
   record-field closures (Spec.trial, a family's build) is statically
   unresolvable, so module-level mutable state is required to be safe
   for concurrent access unconditionally; lambda bodies inherit the
   lockset of their syntactic context; reads of captured arrays/bytes
   are allowed (concurrent writers are flagged independently); calls
   out of a pooled task are followed same-module in full and
   cross-module (via Typed_scan) for shared-channel output. *)

let rule_shared = "race-shared-mut"
let rule_lock = "race-lock-discipline"
let rule_determinism = "race-determinism"
let rule_rng = "race-rng"

(* ---- annotations ------------------------------------------------------ *)

type annot = Guarded_by of string | Domain_local | Merge_only

type annots = {
  tbl : (int, annot) Hashtbl.t;
  bad : (int * string) list;
  used : (int, unit) Hashtbl.t;
}

let is_mutex_name s =
  s <> "" && String.for_all (fun c -> Ast_scan.is_ident_char c || c = '.') s

let annotations_of_source src =
  let tbl = Hashtbl.create 8 and bad = ref [] in
  List.iter
    (fun (line, text) ->
      let tokens = String.split_on_char ' ' (String.trim text) |> List.filter (fun s -> s <> "") in
      let malformed msg = bad := (line, msg) :: !bad in
      (* Prose that merely mentions the marker is not an annotation
         attempt: only engage on a known proof keyword, then insist
         the whole comment parses. *)
      match tokens with
      | [ "domain-local" ] -> Hashtbl.replace tbl line Domain_local
      | [ "merge-only" ] -> Hashtbl.replace tbl line Merge_only
      | [ "guarded-by"; m ] when is_mutex_name m -> Hashtbl.replace tbl line (Guarded_by m)
      | "guarded-by" :: rest ->
          malformed
            (Printf.sprintf "`guarded-by` takes exactly one mutex name, got `%s`"
               (String.concat " " rest))
      | ("domain-local" | "merge-only") :: _ :: _ ->
          malformed "`domain-local` and `merge-only` take no arguments"
      | _ -> ())
    (Ast_scan.marker_comments ~marker:"dipp-race:" src);
  { tbl; bad = List.rev !bad; used = Hashtbl.create 8 }

let annotation_findings ~filename annots =
  List.map
    (fun (line, msg) ->
      {
        Report.file = filename;
        line;
        col = 0;
        rule = rule_shared;
        msg = "malformed dipp-race annotation: " ^ msg;
      })
    annots.bad

(* ---- the shared-state model ------------------------------------------- *)

type maker = Mref | Marr | Mbytes | Mtbl | Mbuf | Mqueue | Mstack

let maker_name = function
  | Mref -> "ref"
  | Marr -> "array"
  | Mbytes -> "bytes"
  | Mtbl -> "hashtable"
  | Mbuf -> "buffer"
  | Mqueue -> "queue"
  | Mstack -> "stack"

(* What a name is bound to, as far as this pass tracks values. *)
type binfo =
  | Mut of maker * int  (** a plain mutable location; the binding's line *)
  | Atomic_v
  | Mutex_v
  | Rng_v
  | Task_ix  (** a submitted closure's own parameter: the task identity *)
  | Claim_ix  (** an index claimed via Atomic.fetch_and_add: task-unique *)
  | Fn_local of Parsetree.expression
  | Plain

type gkind = Gmut of maker | Gatomic | Gmutex

type access = {
  aloc : Location.t;
  awrite : bool;
  aordered : bool;  (** write whose effect depends on execution order *)
  adesc : string;
  alocks : string list;  (** lockset held at the access *)
  apar : bool;  (** syntactically inside a pooled task *)
}

type glob = {
  gname : string;
  gkind : gkind;
  gloc : Location.t;
  gline : int;
  mutable gaccs : access list;
}

type safe = {
  rfile : string;
  rline : int;  (** 1-based *)
  rcol : int;  (** 0-based *)
  rdesc : string;
}

type result = { findings : Report.finding list; safe : safe list }

type ctx = {
  filename : string;
  program : Typed_scan.program;
  annots : annots;
  globals : (string, glob) Hashtbl.t;
  topfns : (string, Parsetree.expression) Hashtbl.t;
  mutable findings : Report.finding list;
  mutable safes : safe list;
  safe_seen : (int * int * string, unit) Hashtbl.t;
  mutable edges : (string * string * Location.t) list;  (** held, acquired *)
  inlined : (string, unit) Hashtbl.t;
  printers : (string, (string * int) option) Hashtbl.t;
  mutable excused : string option;
      (** name whose read inside its own checked update must not re-fire *)
}

let emit ctx ~loc ~rule msg = ctx.findings <- Report.finding ~loc ~rule msg :: ctx.findings

let add_safe ctx ~(loc : Location.t) desc =
  let p = loc.loc_start in
  let key = (p.pos_lnum, p.pos_cnum - p.pos_bol, desc) in
  if not (Hashtbl.mem ctx.safe_seen key) then begin
    Hashtbl.add ctx.safe_seen key ();
    ctx.safes <-
      { rfile = p.pos_fname; rline = p.pos_lnum; rcol = p.pos_cnum - p.pos_bol; rdesc = desc }
      :: ctx.safes
  end

(* ---- small AST helpers ------------------------------------------------ *)

let rec strip (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> strip e
  | _ -> e

let ident_of e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> Some n
  | _ -> None

let rec var_of_pat (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some (txt, p.ppat_loc)
  | Ppat_constraint (p, _) -> var_of_pat p
  | _ -> None

(* Immediate sub-expressions, for the generic lockset-threading walk. *)
let children (e : Parsetree.expression) =
  let acc = ref [] in
  let expr _ (c : Parsetree.expression) = acc := c :: !acc in
  let self = { Ast_iterator.default_iterator with expr } in
  Ast_iterator.default_iterator.expr self e;
  List.rev !acc

let mentions_ident name e =
  let found = ref false in
  let expr self (c : Parsetree.expression) =
    (match c.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } when n = name -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr self c
  in
  let iter = { Ast_iterator.default_iterator with expr } in
  iter.expr iter e;
  !found

(* ---- classification --------------------------------------------------- *)

let classify (e : Parsetree.expression) =
  let e = strip e in
  match e.pexp_desc with
  | Pexp_array _ -> Some (fun line -> Mut (Marr, line))
  | Pexp_fun _ | Pexp_function _ -> Some (fun _ -> Fn_local e)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match txt with
      | Longident.Lident "ref" -> Some (fun line -> Mut (Mref, line))
      | _ -> (
          match Ast_scan.last_two txt with
          | Some ("Stdlib", "ref") -> Some (fun line -> Mut (Mref, line))
          | Some
              ( "Array",
                ( "make" | "init" | "create_float" | "make_matrix" | "of_list" | "copy" | "append"
                | "concat" | "sub" | "map" | "mapi" | "of_seq" ) ) ->
              Some (fun line -> Mut (Marr, line))
          | Some ("Bytes", ("create" | "make" | "init" | "of_string" | "copy" | "sub" | "cat")) ->
              Some (fun line -> Mut (Mbytes, line))
          | Some ("Hashtbl", ("create" | "copy" | "of_seq")) -> Some (fun line -> Mut (Mtbl, line))
          | Some ("Buffer", "create") -> Some (fun line -> Mut (Mbuf, line))
          | Some ("Queue", ("create" | "copy")) -> Some (fun line -> Mut (Mqueue, line))
          | Some ("Stack", ("create" | "copy")) -> Some (fun line -> Mut (Mstack, line))
          | Some ("Atomic", "make") -> Some (fun _ -> Atomic_v)
          | Some ("Mutex", "create") -> Some (fun _ -> Mutex_v)
          | Some ("Rng", ("create" | "split" | "split_string")) -> Some (fun _ -> Rng_v)
          | Some ("Atomic", "fetch_and_add") -> Some (fun _ -> Claim_ix)
          | _ -> None))
  | _ -> None

let binfo_of env e line =
  match classify e with
  | Some mk -> mk line
  | None -> (
      (* an alias of a tracked local binding keeps its classification;
         globals are tracked by name, not aliased *)
      match ident_of e with
      | Some n -> ( match List.assoc_opt n env with Some (info, _) -> info | None -> Plain)
      | None -> Plain)

(* Stdlib operations on mutable containers: which positional argument is
   the container, whether the call writes it, and whether the write's
   effect depends on execution order. *)
let container_ops m f : (int * bool * bool) list =
  match (m, f) with
  | "Hashtbl", ("find" | "find_opt" | "find_all" | "mem" | "length" | "copy" | "to_seq" | "stats")
    ->
      [ (0, false, false) ]
  | "Hashtbl", ("iter" | "fold") -> [ (1, false, false) ]
  (* a keyed replace is idempotent for a value that is a pure function of
     the key (the label-cache contract); add stacks duplicates in order *)
  | "Hashtbl", "replace" -> [ (0, true, false) ]
  | "Hashtbl", "add" -> [ (0, true, true) ]
  | "Hashtbl", ("remove" | "reset" | "clear") -> [ (0, true, false) ]
  | "Hashtbl", "filter_map_inplace" -> [ (1, true, true) ]
  | "Array", ("get" | "unsafe_get" | "length" | "to_list" | "copy" | "sub" | "mem" | "memq") ->
      [ (0, false, false) ]
  | "Array", ("iter" | "iteri" | "map" | "mapi" | "exists" | "for_all") -> [ (1, false, false) ]
  | "Array", "fold_left" -> [ (2, false, false) ]
  | "Array", "fold_right" -> [ (1, false, false) ]
  | "Array", ("set" | "unsafe_set" | "fill") -> [ (0, true, false) ]
  | "Array", "blit" -> [ (0, false, false); (2, true, false) ]
  | "Array", ("sort" | "stable_sort" | "fast_sort") -> [ (0, true, false) ]
  | "Bytes", ("get" | "unsafe_get" | "length" | "to_string" | "sub" | "sub_string" | "copy") ->
      [ (0, false, false) ]
  | "Bytes", ("set" | "unsafe_set" | "fill") -> [ (0, true, false) ]
  | "Bytes", ("blit" | "blit_string") -> [ (0, false, false); (2, true, false) ]
  | "Buffer", ("contents" | "length" | "to_bytes" | "sub" | "nth") -> [ (0, false, false) ]
  | "Buffer", f when String.length f >= 4 && String.sub f 0 4 = "add_" -> [ (0, true, true) ]
  | "Buffer", ("clear" | "reset" | "truncate") -> [ (0, true, false) ]
  | "Queue", ("length" | "is_empty" | "peek" | "peek_opt" | "copy") -> [ (0, false, false) ]
  | "Queue", ("iter" | "fold") -> [ (1, false, false) ]
  | "Queue", ("add" | "push") -> [ (1, true, true) ]
  | "Queue", ("pop" | "take" | "pop_opt" | "take_opt") -> [ (0, true, true) ]
  | "Queue", "clear" -> [ (0, true, false) ]
  | "Stack", ("length" | "is_empty" | "top" | "top_opt" | "iter" | "fold") -> [ (0, false, false) ]
  | "Stack", "push" -> [ (1, true, true) ]
  | "Stack", ("pop" | "pop_opt") -> [ (0, true, true) ]
  | "Stack", "clear" -> [ (0, true, false) ]
  | _ -> []

(* Output to a channel every domain shares: nondeterministic
   interleaving.  [fprintf] is deliberately absent — its channel is a
   parameter, not necessarily shared. *)
let output_head lid =
  match lid with
  | Longident.Lident
      ( "print_string" | "print_endline" | "print_newline" | "print_int" | "print_char"
      | "print_float" | "print_bytes" | "prerr_string" | "prerr_endline" | "prerr_newline"
      | "prerr_int" | "output_string" | "output_char" | "output_bytes" | "output_byte"
      | "output_value" ) ->
      true
  | _ -> (
      match Ast_scan.last_two lid with
      | Some (("Printf" | "Format"), ("printf" | "eprintf")) -> true
      | Some ("Stdlib", ("print_string" | "print_endline" | "prerr_endline")) -> true
      | _ -> false)

(* How an [x := rhs] update composes with concurrent updates. *)
type update = Merge_like of string | Ordered_up of string

let merge_ops = [ "+"; "*"; "land"; "lor"; "lxor"; "min"; "max" ]

let update_kind name rhs =
  let rhs = strip rhs in
  if not (mentions_ident name rhs) then Ordered_up "blind overwrite: last writer wins"
  else
    match rhs.pexp_desc with
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> Ordered_up "list cons"
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match txt with
        | Longident.Lident op when List.mem op merge_ops ->
            Merge_like (Printf.sprintf "commutative `%s`" op)
        | Longident.Lident ("@" | "^") -> Ordered_up "order-dependent append"
        | _ ->
            let base = match Ast_scan.last_two txt with Some (_, f) -> f | None -> "" in
            let base = match (base, txt) with "", Longident.Lident f -> f | _ -> base in
            if String.length base >= 6 && String.sub base 0 6 = "merge_" then
              Merge_like ("merge algebra `" ^ base ^ "`")
            else Ordered_up "update not in the merge algebra")
    | _ -> Ordered_up "update not in the merge algebra"

(* ---- cross-module output scan ----------------------------------------- *)

(* Does [M.f] (transitively, depth-limited) print to a shared channel?
   Used for qualified calls out of pooled tasks — the callee's own module
   state is covered by that module's own analysis; interleaved output is
   the cross-module hazard worth chasing. *)
let rec scan_prints ctx depth ~modname (e : Parsetree.expression) : (string * int) option =
  let hit = ref None in
  let expr self (c : Parsetree.expression) =
    match !hit with
    | Some _ -> ()
    | None ->
        (match c.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) when output_head txt ->
            hit := Some (loc.loc_start.pos_fname, loc.loc_start.pos_lnum)
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) when depth > 0 -> (
            let target =
              match txt with
              | Longident.Lident n -> Some (modname, n)
              | _ -> (
                  match Ast_scan.last_two txt with
                  | Some (m, f) when m <> "" && m.[0] >= 'A' && m.[0] <= 'Z' -> Some (m, f)
                  | _ -> None)
            in
            match target with
            | Some (m, f) -> (
                match printer_of ctx depth m f with Some p -> hit := Some p | None -> ())
            | None -> ())
        | _ -> ());
        Ast_iterator.default_iterator.expr self c
  in
  let iter = { Ast_iterator.default_iterator with expr } in
  iter.expr iter e;
  !hit

and printer_of ctx depth m f : (string * int) option =
  let key = m ^ "." ^ f in
  match Hashtbl.find_opt ctx.printers key with
  | Some r -> r
  | None ->
      Hashtbl.replace ctx.printers key None (* recursion guard *);
      let r =
        match Typed_scan.lookup ctx.program ~modname:m ~name:f with
        | Some entry -> scan_prints ctx (depth - 1) ~modname:m entry.Typed_scan.body
        | None -> None
      in
      Hashtbl.replace ctx.printers key r;
      r

(* ---- lockset plumbing ------------------------------------------------- *)

let inter a b = List.filter (fun x -> List.mem x b) a
let remove x l = List.filter (fun y -> y <> x) l

let mutex_name ctx env e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> (
      match List.assoc_opt n env with
      | Some (Mutex_v, _) -> Some n
      | Some _ -> None
      | None -> (
          match Hashtbl.find_opt ctx.globals n with
          | Some { gkind = Gmutex; _ } -> Some n
          | _ -> None))
  | Pexp_ident { txt; _ } -> Some (Ast_scan.ident_path txt)
  | _ -> None

(* ---- the walk --------------------------------------------------------- *)

let record (g : glob) ~loc ~write ~ordered ~desc ~locks ~par =
  g.gaccs <-
    { aloc = loc; awrite = write; aordered = ordered; adesc = desc; alocks = locks; apar = par }
    :: g.gaccs

let lookup_name ctx env n =
  match List.assoc_opt n env with
  | Some (info, cap) -> `Local (info, cap)
  | None -> ( match Hashtbl.find_opt ctx.globals n with Some g -> `Global g | None -> `Unknown)

let mark_captured env = List.map (fun (n, (i, _)) -> (n, (i, true))) env

(* An annotation covers the binding on its own line or the line below
   it, like lint suppressions and dipp-refine bounds. *)
let annotated ctx ~line =
  match Ast_scan.annotation_at ctx.annots.tbl ~line with
  | Some (aline, a) ->
      Hashtbl.replace ctx.annots.used aline ();
      Some a
  | None -> None

(* A trusted annotation on a binding: consume it, validate guarded-by
   against the known mutexes, and record the trusted proof. *)
let consume_binding_annot ctx env ~name ~maker ~(loc : Location.t) =
  let line = loc.loc_start.pos_lnum in
  match annotated ctx ~line with
  | None -> false
  | Some a ->
      (match a with
      | Guarded_by m ->
          let known =
            (match Hashtbl.find_opt ctx.globals m with
            | Some { gkind = Gmutex; _ } -> true
            | _ -> false)
            || (match List.assoc_opt m env with Some (Mutex_v, _) -> true | _ -> false)
            || String.contains m '.'
          in
          if not known then
            emit ctx ~loc ~rule:rule_shared
              (Printf.sprintf
                 "dipp-race annotation claims `%s` is guarded by `%s`, but no Mutex of that name \
                  is in scope"
                 name m)
          else
            add_safe ctx ~loc
              (Printf.sprintf "%s `%s`: trusted annotation guarded-by `%s`" (maker_name maker)
                 name m)
      | Domain_local ->
          add_safe ctx ~loc
            (Printf.sprintf "%s `%s`: trusted annotation domain-local" (maker_name maker) name)
      | Merge_only ->
          add_safe ctx ~loc
            (Printf.sprintf "%s `%s`: trusted annotation merge-only" (maker_name maker) name));
      true

let rec walk ctx env ~par ls (e : Parsetree.expression) : string list =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; loc } -> (
      (* a bare occurrence outside any recognized operation *)
      match lookup_name ctx env n with
      | `Local (Rng_v, true) when par && ctx.excused <> Some n ->
          emit ctx ~loc ~rule:rule_rng
            (Printf.sprintf
               "captured Rng stream `%s` escapes into a pooled task; pass a per-task stream \
                (Rng.split %s <task index>) instead"
               n n);
          ls
      | `Global ({ gkind = Gmut _; _ } as g) when ctx.excused <> Some n ->
          (* escapes to an unknown consumer: conservatively a write *)
          record g ~loc ~write:true ~ordered:false ~desc:"escapes to an unknown consumer"
            ~locks:ls ~par;
          ls
      | _ -> ls)
  | Pexp_let (_, vbs, body) ->
      let env', ls' =
        List.fold_left
          (fun (env_acc, ls) (vb : Parsetree.value_binding) ->
            let ls = walk ctx env ~par ls vb.pvb_expr in
            match var_of_pat vb.pvb_pat with
            | Some (name, vloc) ->
                let line = vloc.loc_start.pos_lnum in
                let info = binfo_of env vb.pvb_expr line in
                (match info with
                | Mut (mk, _) -> ignore (consume_binding_annot ctx env ~name ~maker:mk ~loc:vloc)
                | _ -> ());
                ((name, (info, false)) :: env_acc, ls)
            | None ->
                ( List.fold_left
                    (fun acc v -> (v, (Plain, false)) :: acc)
                    env_acc
                    (Ast_scan.pattern_vars vb.pvb_pat),
                  ls ))
          (env, ls) vbs
      in
      walk ctx env' ~par ls' body
  | Pexp_fun (_, default, pat, body) ->
      (match default with Some d -> ignore (walk ctx env ~par ls d) | None -> ());
      let env' =
        List.fold_left (fun acc v -> (v, (Plain, false)) :: acc) env (Ast_scan.pattern_vars pat)
      in
      (* approximation: the body inherits the syntactic lockset *)
      ignore (walk ctx env' ~par ls body);
      ls
  | Pexp_function cases ->
      ignore (walk_cases ctx env ~par ls cases);
      ls
  | Pexp_sequence (a, b) ->
      let ls = walk ctx env ~par ls a in
      walk ctx env ~par ls b
  | Pexp_ifthenelse (c, t, eo) ->
      let ls0 = walk ctx env ~par ls c in
      let lt = walk ctx env ~par ls0 t in
      let le = match eo with Some e2 -> walk ctx env ~par ls0 e2 | None -> ls0 in
      inter lt le
  | Pexp_match (scrut, cases) ->
      let ls0 = walk ctx env ~par ls scrut in
      walk_cases ctx env ~par ls0 cases
  | Pexp_try (body, cases) ->
      let lsb = walk ctx env ~par ls body in
      inter lsb (walk_cases ctx env ~par ls cases)
  | Pexp_while (c, b) ->
      ignore (walk ctx env ~par ls c);
      ignore (walk ctx env ~par ls b);
      ls
  | Pexp_for (pat, lo, hi, _, body) ->
      ignore (walk ctx env ~par ls lo);
      ignore (walk ctx env ~par ls hi);
      let env' =
        List.fold_left (fun acc v -> (v, (Plain, false)) :: acc) env (Ast_scan.pattern_vars pat)
      in
      ignore (walk ctx env' ~par ls body);
      ls
  | Pexp_setfield (r, _, v) ->
      let ls = walk ctx env ~par ls v in
      (match ident_of r with
      | Some n -> (
          match lookup_name ctx env n with
          | `Global ({ gkind = Gmut _; _ } as g) ->
              record g ~loc:e.pexp_loc ~write:true ~ordered:false ~desc:"mutable field write"
                ~locks:ls ~par
          | `Local (_, true) when par ->
              if List.is_empty ls then
                emit ctx ~loc:e.pexp_loc ~rule:rule_shared
                  (Printf.sprintf
                     "mutable field of captured `%s` written from a pooled task without a guard; \
                      use Atomic, hold one Mutex at every access, or a dipp-race annotation \
                      (domain-local | merge-only) on the binding"
                     n)
          | _ -> ())
      | None -> ignore (walk ctx env ~par ls r));
      ls
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc = head_loc }; _ }, args) ->
      walk_apply ctx env ~par ls e txt head_loc args
  | _ -> List.fold_left (fun ls c -> walk ctx env ~par ls c) ls (children e)

and walk_cases ctx env ~par ls cases =
  let exits =
    List.map
      (fun (c : Parsetree.case) ->
        let env' =
          List.fold_left
            (fun acc v -> (v, (Plain, false)) :: acc)
            env
            (Ast_scan.pattern_vars c.pc_lhs)
        in
        (match c.pc_guard with Some g -> ignore (walk ctx env' ~par ls g) | None -> ());
        walk ctx env' ~par ls c.pc_rhs)
      cases
  in
  match exits with [] -> ls | first :: rest -> List.fold_left inter first rest

and walk_args ctx env ~par ls args =
  List.fold_left (fun ls (_, a) -> walk ctx env ~par ls a) ls args

(* Walk a closure submitted to the pool: its parameters are the task's
   identity, everything already in scope is captured, and the new domain
   starts with no locks held. *)
and walk_submitted ctx env lam =
  let lam = strip lam in
  match Typed_scan.peel_params lam with
  | Some (params, body) ->
      let env' =
        List.fold_left (fun acc p -> (p, (Task_ix, false)) :: acc) (mark_captured env) params
      in
      ignore (walk ctx env' ~par:true [] body)
  | None -> ignore (walk ctx (mark_captured env) ~par:true [] lam)

and inline_local ctx env ~ls lam =
  let key =
    let p = lam.Parsetree.pexp_loc.loc_start in
    Printf.sprintf "%s:%d:%d" p.pos_fname p.pos_lnum (p.pos_cnum - p.pos_bol)
  in
  if not (Hashtbl.mem ctx.inlined key) then begin
    Hashtbl.add ctx.inlined key ();
    match Typed_scan.peel_params lam with
    | Some (params, body) ->
        let env' =
          List.fold_left (fun acc p -> (p, (Plain, false)) :: acc) (mark_captured env) params
        in
        ignore (walk ctx env' ~par:true ls body)
    | None -> ignore (walk ctx (mark_captured env) ~par:true ls lam)
  end

and captured_write ctx ~loc ~name ~maker ~line ls (up : update) =
  match annotated ctx ~line with
  | Some _ -> () (* trusted: the safe entry was recorded at the binding *)
  | None -> (
      match ls with
      | [] ->
          emit ctx ~loc ~rule:rule_shared
            (Printf.sprintf
               "captured %s `%s` is written from a pooled task without a guard; make it Atomic, \
                hold one Mutex at every access, or prove it domain-local (task-indexed cell or a \
                dipp-race annotation on the binding)"
               (maker_name maker) name)
      | guard :: _ -> (
          match up with
          | Ordered_up why ->
              emit ctx ~loc ~rule:rule_determinism
                (Printf.sprintf
                   "order-dependent update of captured %s `%s` from a pooled task (%s): even \
                    under `%s` the result depends on task completion order; return per-task \
                    values and fold after the join, or combine through the commutative \
                    Dip.merge_* algebra"
                   (maker_name maker) name why guard)
          | Merge_like how ->
              add_safe ctx ~loc
                (Printf.sprintf "%s `%s`: merge-only update (%s) under `%s`" (maker_name maker)
                   name how guard)))

and global_write g ~loc ls ~par (up : update) =
  let ordered, desc =
    match up with Ordered_up why -> (true, why) | Merge_like how -> (false, how)
  in
  record g ~loc ~write:true ~ordered ~desc ~locks:ls ~par

and walk_apply ctx env ~par ls whole txt head_loc args =
  let lt = Ast_scan.last_two txt in
  match (txt, lt, args) with
  (* lock discipline ---------------------------------------------------- *)
  | _, Some ("Mutex", "lock"), [ (_, m) ] -> (
      match mutex_name ctx env m with
      | Some name ->
          if List.mem name ls then begin
            emit ctx ~loc:head_loc ~rule:rule_lock
              (Printf.sprintf
                 "`%s` locked while already held: OCaml mutexes are not reentrant (self-deadlock)"
                 name);
            ls
          end
          else begin
            List.iter (fun h -> ctx.edges <- (h, name, head_loc) :: ctx.edges) ls;
            name :: ls
          end
      | None -> ls)
  | _, Some ("Mutex", "unlock"), [ (_, m) ] -> (
      match mutex_name ctx env m with Some name -> remove name ls | None -> ls)
  | _, Some ("Mutex", "protect"), (_, m) :: rest -> (
      match mutex_name ctx env m with
      | Some name ->
          List.iter (fun h -> ctx.edges <- (h, name, head_loc) :: ctx.edges) ls;
          ignore (walk_args ctx env ~par (name :: ls) rest);
          ls
      | None -> walk_args ctx env ~par ls rest)
  (* submission --------------------------------------------------------- *)
  | _, Some (("Pool", ("run" | "map")) | ("Domain", "spawn")), _ ->
      (match ls with
      | [] -> ()
      | held :: _ ->
          let what = match lt with Some (m, f) -> m ^ "." ^ f | None -> "submission" in
          emit ctx ~loc:head_loc ~rule:rule_lock
            (Printf.sprintf
               "lock `%s` held across %s: a pooled task contending for it serializes or \
                deadlocks the pool; submit outside the critical section"
               held what));
      List.iter
        (fun (_, a) ->
          match (strip a).pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> walk_submitted ctx env a
          | Pexp_ident { txt = Longident.Lident n; _ } -> (
              match lookup_name ctx env n with
              | `Local (Fn_local lam, _) -> walk_submitted ctx env lam
              | _ -> ())
          | _ -> ignore (walk ctx env ~par ls a))
        args;
      ls
  (* the seeded Rng ------------------------------------------------------ *)
  | _, Some ("Rng", ("split" | "split_string")), (_, parent) :: rest -> (
      let ls = walk_args ctx env ~par ls rest in
      match ident_of parent with
      | Some n when par -> (
          match lookup_name ctx env n with
          | `Local (Rng_v, true) ->
              let salt_mentions_task =
                List.exists
                  (fun (_, salt) ->
                    List.exists (fun (bn, (_, cap)) -> (not cap) && mentions_ident bn salt) env)
                  rest
              in
              if salt_mentions_task then
                add_safe ctx ~loc:head_loc
                  (Printf.sprintf
                     "captured Rng `%s`: per-task stream (split keyed by the task's own identity)"
                     n)
              else
                emit ctx ~loc:head_loc ~rule:rule_rng
                  (Printf.sprintf
                     "captured Rng stream `%s` split with a salt that does not involve the \
                      task's own identity: every task derives the same stream; key the split by \
                      the task index"
                     n);
              ls
          | _ -> ls)
      | Some _ -> ls
      | None -> walk ctx env ~par ls parent)
  | _, Some ("Rng", _), (_, parent) :: rest -> (
      let ls = walk_args ctx env ~par ls rest in
      match ident_of parent with
      | Some n when par -> (
          match lookup_name ctx env n with
          | `Local (Rng_v, true) ->
              emit ctx ~loc:head_loc ~rule:rule_rng
                (Printf.sprintf
                   "pooled task draws from captured Rng stream `%s`: draws mutate shared state \
                    and the domain schedule decides the sequence; derive a per-task stream with \
                    Rng.split `%s` <task index> first"
                   n n);
              ls
          | _ -> ls)
      | Some _ -> ls
      | None -> walk ctx env ~par ls parent)
  (* atomics ------------------------------------------------------------- *)
  | _, Some ("Atomic", op), (_, a0) :: rest -> (
      let ls = walk_args ctx env ~par ls rest in
      match ident_of a0 with
      | Some n ->
          (match lookup_name ctx env n with
          | `Local (Atomic_v, true) when par ->
              add_safe ctx ~loc:head_loc
                (Printf.sprintf "captured atomic `%s`: lock-free `Atomic.%s` from a pooled task" n
                   op)
          | _ -> ());
          ls
      | None -> walk ctx env ~par ls a0)
  (* ref cells ----------------------------------------------------------- *)
  | Longident.Lident ":=", _, [ (_, lhs); (_, rhs) ] -> (
      match ident_of lhs with
      | Some n -> (
          let saved = ctx.excused in
          ctx.excused <- Some n;
          let ls = walk ctx env ~par ls rhs in
          ctx.excused <- saved;
          let up = update_kind n rhs in
          match lookup_name ctx env n with
          | `Global ({ gkind = Gmut _; _ } as g) ->
              global_write g ~loc:whole.Parsetree.pexp_loc ls ~par up;
              ls
          | `Local (Mut (mk, line), true) when par ->
              captured_write ctx ~loc:whole.Parsetree.pexp_loc ~name:n ~maker:mk ~line ls up;
              ls
          | _ -> ls)
      | None ->
          let ls = walk ctx env ~par ls rhs in
          walk ctx env ~par ls lhs)
  | Longident.Lident "!", _, [ (_, arg) ] -> (
      match ident_of arg with
      | Some n -> (
          match lookup_name ctx env n with
          | `Global ({ gkind = Gmut _; _ } as g) ->
              if ctx.excused <> Some n then
                record g ~loc:head_loc ~write:false ~ordered:false ~desc:"read" ~locks:ls ~par;
              ls
          | `Local (Mut (Mref, line), true) when par && ctx.excused <> Some n ->
              (if List.is_empty ls then
                 match annotated ctx ~line with
                 | Some _ -> ()
                 | None ->
                     emit ctx ~loc:head_loc ~rule:rule_shared
                       (Printf.sprintf
                          "read of captured ref `%s` from a pooled task races with concurrent \
                           writers; use Atomic or hold the guarding Mutex"
                          n));
              ls
          | _ -> ls)
      | None -> walk ctx env ~par ls arg)
  | Longident.Lident (("incr" | "decr") as op), _, [ (_, arg) ] -> (
      match ident_of arg with
      | Some n -> (
          let up = Merge_like (Printf.sprintf "commutative `%s`" op) in
          match lookup_name ctx env n with
          | `Global ({ gkind = Gmut _; _ } as g) ->
              global_write g ~loc:head_loc ls ~par up;
              ls
          | `Local (Mut (mk, line), true) when par ->
              captured_write ctx ~loc:head_loc ~name:n ~maker:mk ~line ls up;
              ls
          | _ -> ls)
      | None -> walk ctx env ~par ls arg)
  (* shared-channel output ----------------------------------------------- *)
  | _, _, _ when par && output_head txt ->
      emit ctx ~loc:head_loc ~rule:rule_determinism
        (Printf.sprintf
           "`%s` from a pooled task interleaves nondeterministically across domains; accumulate \
            per-task output and print after the join"
           (Ast_scan.ident_path txt));
      walk_args ctx env ~par ls args
  (* container operations ------------------------------------------------ *)
  | _, Some (m, f), _ when not (List.is_empty (container_ops m f)) ->
      let ops = container_ops m f in
      let positional =
        List.filter (fun (lab, _) -> match lab with Asttypes.Nolabel -> true | _ -> false) args
      in
      let consumed = ref [] in
      List.iter
        (fun (idx, write, ordered) ->
          match List.nth_opt positional idx with
          | None -> ()
          | Some (_, carg) -> (
              match ident_of carg with
              | None -> ()
              | Some n -> (
                  consumed := n :: !consumed;
                  let loc = whole.Parsetree.pexp_loc in
                  match lookup_name ctx env n with
                  | `Global ({ gkind = Gmut _; _ } as g) ->
                      record g ~loc ~write ~ordered ~desc:(m ^ "." ^ f) ~locks:ls ~par
                  | `Local (Mut (mk, line), true) when par ->
                      if write then begin
                        (* the disjoint task-indexed cell proof *)
                        let task_indexed =
                          (f = "set" || f = "unsafe_set")
                          &&
                          match positional with
                          | _ :: (_, ix) :: _ -> (
                              match ident_of ix with
                              | Some j -> (
                                  match lookup_name ctx env j with
                                  | `Local ((Task_ix | Claim_ix), false) -> true
                                  | _ -> false)
                              | None -> false)
                          | _ -> false
                        in
                        if task_indexed then
                          add_safe ctx ~loc
                            (Printf.sprintf
                               "captured %s `%s`: task-indexed write (the index is task-private) \
                                — domain-local cell"
                               (maker_name mk) n)
                        else
                          let up =
                            if ordered then Ordered_up ("order-dependent `" ^ m ^ "." ^ f ^ "`")
                            else if f = "replace" || f = "set" || f = "fill" then
                              (* keyed overwrite on a captured local: stay
                                 conservative, last writer wins *)
                              Ordered_up ("`" ^ m ^ "." ^ f ^ "`: last writer wins")
                            else Merge_like (m ^ "." ^ f)
                          in
                          captured_write ctx ~loc ~name:n ~maker:mk ~line ls up
                      end
                      else if mk = Mtbl && List.is_empty ls then (
                        match annotated ctx ~line with
                        | Some _ -> ()
                        | None ->
                            emit ctx ~loc ~rule:rule_shared
                              (Printf.sprintf
                                 "read of captured hashtable `%s` from a pooled task races with \
                                  concurrent structural writes; hold the guarding Mutex"
                                 n))
                  | _ -> ())))
        ops;
      (* walk the remaining argument expressions *)
      List.fold_left
        (fun ls (_, a) ->
          match ident_of a with
          | Some n when List.mem n !consumed -> ls
          | _ -> walk ctx env ~par ls a)
        ls args
  (* interprocedural steps ----------------------------------------------- *)
  | Longident.Lident n, _, _ -> (
      let ls = walk_args ctx env ~par ls args in
      (match lookup_name ctx env n with
      | `Local (Fn_local lam, _) when par -> inline_local ctx env ~ls lam
      | `Unknown when par -> (
          match Hashtbl.find_opt ctx.topfns n with
          | Some lam ->
              if not (Hashtbl.mem ctx.inlined ("top:" ^ n)) then begin
                Hashtbl.add ctx.inlined ("top:" ^ n) ();
                match Typed_scan.peel_params lam with
                | Some (params, body) ->
                    let env' = List.map (fun p -> (p, (Plain, false))) params in
                    ignore (walk ctx env' ~par:true ls body)
                | None -> ignore (walk ctx [] ~par:true ls lam)
              end
          | None -> ())
      | _ -> ());
      ls)
  | _, Some (m, f), _ when par && m <> "" && m.[0] >= 'A' && m.[0] <= 'Z' -> (
      let ls = walk_args ctx env ~par ls args in
      match printer_of ctx 3 m f with
      | Some (pfile, pline) ->
          emit ctx ~loc:head_loc ~rule:rule_determinism
            (Printf.sprintf
               "pooled task calls `%s.%s`, which prints to a shared channel (%s:%d); route the \
                output through the task's return value instead"
               m f (Filename.basename pfile) pline);
          ls
      | None -> ls)
  | _ -> walk_args ctx env ~par ls args

(* ---- verdicts --------------------------------------------------------- *)

let distinct_guards accs =
  List.sort_uniq String.compare
    (List.concat_map (fun a -> match a.alocks with [] -> [] | h :: _ -> [ h ]) accs)

let global_verdicts ctx =
  let globs =
    Hashtbl.fold (fun _ g acc -> g :: acc) ctx.globals []
    |> List.sort (fun a b -> Int.compare a.gline b.gline)
  in
  let guard_of = Hashtbl.create 8 in
  List.iter
    (fun g ->
      match g.gkind with
      | Gatomic ->
          add_safe ctx ~loc:g.gloc
            (Printf.sprintf "module-level `%s`: atomic (every access through Atomic)" g.gname)
      | Gmutex -> ()
      | Gmut maker -> (
          if not (consume_binding_annot ctx [] ~name:g.gname ~maker ~loc:g.gloc) then
            let accs = g.gaccs in
            let writes = List.filter (fun a -> a.awrite) accs in
            if List.is_empty writes then
              add_safe ctx ~loc:g.gloc
                (Printf.sprintf
                   "module-level %s `%s`: read-only after initialization (no write site in the \
                    module)"
                   (maker_name maker) g.gname)
            else
              let common =
                match accs with
                | [] -> []
                | first :: rest -> List.fold_left (fun c a -> inter c a.alocks) first.alocks rest
              in
              match common with
              | guard :: _ ->
                  Hashtbl.replace guard_of g.gname guard;
                  add_safe ctx ~loc:g.gloc
                    (Printf.sprintf
                       "module-level %s `%s`: guarded-by `%s` at all %d access site(s)"
                       (maker_name maker) g.gname guard (List.length accs));
                  List.iter
                    (fun a ->
                      if a.apar && a.awrite && a.aordered then
                        emit ctx ~loc:a.aloc ~rule:rule_determinism
                          (Printf.sprintf
                             "order-dependent update of `%s` from a pooled task (%s): even under \
                              `%s` the result depends on task completion order; fold pooled \
                              results in index order after the join or use the Dip.merge_* \
                              algebra"
                             g.gname a.adesc guard))
                    accs
              | [] -> (
                  let unguarded = List.filter (fun a -> List.is_empty a.alocks) accs in
                  match unguarded with
                  | [] ->
                      emit ctx ~loc:g.gloc ~rule:rule_lock
                        (Printf.sprintf
                           "`%s` is guarded by more than one mutex (%s); exactly one lock must \
                            own each shared location"
                           g.gname
                           (String.concat ", " (distinct_guards accs)))
                  | a :: _ ->
                      emit ctx ~loc:g.gloc ~rule:rule_shared
                        (Printf.sprintf
                           "module-level mutable %s `%s` is domain-shared (any caller may be a \
                            pooled task) but line %d accesses it with no lock held; make it \
                            Atomic, guard every access with one Mutex, or add a dipp-race \
                            annotation (guarded-by M | domain-local | merge-only)"
                           (maker_name maker) g.gname a.aloc.loc_start.pos_lnum))))
    globs;
  (* mutexes last, so the guard counts are known *)
  List.iter
    (fun g ->
      match g.gkind with
      | Gmutex ->
          let guarded =
            Hashtbl.fold (fun _ m acc -> if m = g.gname then acc + 1 else acc) guard_of 0
          in
          add_safe ctx ~loc:g.gloc
            (Printf.sprintf "module-level mutex `%s`: guards %d location(s)" g.gname guarded)
      | _ -> ())
    globs

(* A cycle in the lock-order graph means two call paths can acquire the
   same pair of mutexes in opposite orders: a deadlock. *)
let lock_order_findings ctx =
  let cmp_edge (a1, b1) (a2, b2) =
    match String.compare a1 a2 with 0 -> String.compare b1 b2 | c -> c
  in
  let edges = List.sort_uniq cmp_edge (List.map (fun (a, b, _) -> (a, b)) ctx.edges) in
  let succs n = List.filter_map (fun (a, b) -> if a = n then Some b else None) edges in
  let nodes = List.sort_uniq String.compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  let rec reach seen n target =
    if n = target then true
    else if List.mem n seen then false
    else List.exists (fun s -> reach (n :: seen) s target) (succs n)
  in
  match List.filter (fun n -> List.exists (fun s -> reach [] s n) (succs n)) nodes with
  | [] -> ()
  | n :: _ ->
      let loc =
        match List.find_opt (fun (a, _, _) -> a = n) ctx.edges with
        | Some (_, _, l) -> l
        | None -> Location.in_file ctx.filename
      in
      emit ctx ~loc ~rule:rule_lock
        (Printf.sprintf
           "lock acquisition order cycle through `%s`; acquire mutexes in one global order" n)

let unused_annotation_findings ctx =
  Hashtbl.iter
    (fun line _ ->
      if not (Hashtbl.mem ctx.annots.used line) then
        ctx.findings <-
          {
            Report.file = ctx.filename;
            line;
            col = 0;
            rule = rule_shared;
            msg =
              "dipp-race annotation does not attach to a mutable binding (it covers the binding \
               on its line or the line below)";
          }
          :: ctx.findings)
    ctx.annots.tbl

(* ---- entry points ------------------------------------------------------ *)

let analyze ~program ~annots ~filename structure =
  try
    let ctx =
      {
        filename;
        program;
        annots;
        globals = Hashtbl.create 8;
        topfns = Hashtbl.create 16;
        findings = [];
        safes = [];
        safe_seen = Hashtbl.create 16;
        edges = [];
        inlined = Hashtbl.create 16;
        printers = Hashtbl.create 16;
        excused = None;
      }
    in
    (* pass 1: the module-level inventory *)
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match var_of_pat vb.pvb_pat with
                | None -> ()
                | Some (name, vloc) -> (
                    let mk_glob gkind =
                      Hashtbl.replace ctx.globals name
                        {
                          gname = name;
                          gkind;
                          gloc = vloc;
                          gline = vloc.loc_start.pos_lnum;
                          gaccs = [];
                        }
                    in
                    match binfo_of [] vb.pvb_expr vloc.loc_start.pos_lnum with
                    | Mut (mk, _) -> mk_glob (Gmut mk)
                    | Atomic_v -> mk_glob Gatomic
                    | Mutex_v -> mk_glob Gmutex
                    | Fn_local lam -> Hashtbl.replace ctx.topfns name lam
                    | _ -> ()))
              vbs
        | _ -> ())
      structure;
    (* pass 2: walk every top-level body, threading locksets *)
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) -> ignore (walk ctx [] ~par:false [] vb.pvb_expr))
              vbs
        | Pstr_eval (e, _) -> ignore (walk ctx [] ~par:false [] e)
        | _ -> ())
      structure;
    (* pass 3: verdicts *)
    global_verdicts ctx;
    lock_order_findings ctx;
    unused_annotation_findings ctx;
    let cmp_safe a b =
      match String.compare a.rfile b.rfile with
      | 0 -> (
          match Int.compare a.rline b.rline with
          | 0 -> (
              match Int.compare a.rcol b.rcol with 0 -> String.compare a.rdesc b.rdesc | c -> c)
          | c -> c)
      | c -> c
    in
    {
      findings = List.sort_uniq Report.compare ctx.findings;
      safe = List.sort_uniq cmp_safe ctx.safes;
    }
  with _ -> { findings = []; safe = [] }
