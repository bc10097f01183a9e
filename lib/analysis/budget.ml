(* The [budget] rule: static extraction of a protocol's interaction
   schedule — its Dip.record_prover / Dip.record_verifier call sequence
   along every execution path of [run], with sub-protocol [M.run] calls
   expanded through the whole-program index — checked against the
   declared-bounds registry (lib/protocols/bounds.ml). *)

type ph = P | V

type declared = { id : string; rounds : int; schedule : ph list }

let rule_budget = "budget"

let ph_name = function P -> "P" | V -> "V"

let render = function
  | [] -> "(no phases)"
  | phs -> String.concat "-" (List.map ph_name phs)

let ph_equal a b = match (a, b) with P, P | V, V -> true | P, V | V, P -> false

let rec sched_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys -> ph_equal x y && sched_prefix xs ys

let sched_equal a b = List.length a = List.length b && sched_prefix a b

(* ---- path algebra ----------------------------------------------------- *)

(* One event on an execution path: a phase recorded directly, or a
   sub-protocol run whose schedule merges in parallel. *)
type ev = Rec of ph | Sub of string

let compare_ev a b =
  match (a, b) with
  | Rec x, Rec y -> Int.compare (match x with P -> 0 | V -> 1) (match y with P -> 0 | V -> 1)
  | Rec _, Sub _ -> -1
  | Sub _, Rec _ -> 1
  | Sub x, Sub y -> String.compare x y

let rec compare_path a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare_ev x y in
      if c <> 0 then c else compare_path xs ys

(* Alternatives are capped: schedules are five events long, so 64 distinct
   paths already means the control flow is degenerate, not interesting. *)
let path_cap = 64

let dedupe ps =
  let ps = List.sort_uniq compare_path ps in
  List.filteri (fun i _ -> i < path_cap) ps

let one = [ [] ]
let seq a b = dedupe (List.concat_map (fun p -> List.map (fun q -> p @ q) b) a)
let union a b = dedupe (a @ b)

(* ---- event identification --------------------------------------------- *)

let record_kind lid =
  match Ast_scan.last_two lid with
  | Some ("Dip", "record_prover") -> Some P
  | Some ("Dip", "record_verifier") -> Some V
  | Some _ | None -> None

let sub_target lid =
  match Ast_scan.last_two lid with
  | Some (m, "run") when m <> "Dip" -> Some m
  | Some _ | None -> None

(* ---- the walker ------------------------------------------------------- *)

(* Names bound locally shadow top-level helpers; a let-bound function
   carries its body (and defining scope) so calls to it splice its paths. *)
type local = Opaque | Body of Parsetree.expression * (string * local) list

type state = {
  program : Typed_scan.program;
  path : string;  (* the checked file: its own bindings resolve there *)
  self_mod : string;
  helpers : (string, ev list list) Hashtbl.t;  (* top-level fns, key "Mod.name" *)
  mods : (string, ph list option) Hashtbl.t;  (* expanded module schedules *)
  closures : (Location.t, unit) Hashtbl.t;  (* self-module lambdas/loops that record *)
}

let pattern_vars = Ast_scan.pattern_vars

let opaque locals names = List.fold_left (fun ls x -> (x, Opaque) :: ls) locals names

(* The checked module's own bindings come from its own file, so a module
   name two files share never mixes them up. *)
let lookup st ~m name =
  if String.equal m st.self_mod then Typed_scan.lookup_in st.program ~path:st.path ~name
  else Typed_scan.lookup st.program ~modname:m ~name

let rec paths st ~m locals (e : Parsetree.expression) : ev list list =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let argp =
        List.fold_left (fun acc (_, a) -> seq acc (paths st ~m locals a)) one args
      in
      match record_kind txt with
      | Some p -> seq argp [ [ Rec p ] ]
      | None -> (
          match sub_target txt with
          | Some sub -> seq argp [ [ Sub sub ] ]
          | None -> (
              match txt with
              | Longident.Lident f -> seq argp (call_paths st ~m locals f)
              | _ -> argp)))
  | Pexp_apply (f, args) ->
      List.fold_left (fun acc x -> seq acc (paths st ~m locals x)) one (f :: List.map snd args)
  | Pexp_sequence (a, b) -> seq (paths st ~m locals a) (paths st ~m locals b)
  | Pexp_let (rf, vbs, body) ->
      let names = List.concat_map (fun vb -> pattern_vars vb.Parsetree.pvb_pat) vbs in
      let shadowed = opaque locals names in
      let def_env = match rf with Asttypes.Recursive -> shadowed | Asttypes.Nonrecursive -> locals in
      (* non-function right-hand sides execute here, in order *)
      let defp =
        List.fold_left
          (fun acc vb ->
            match Typed_scan.peel_params vb.Parsetree.pvb_expr with
            | Some _ -> acc
            | None -> seq acc (paths st ~m def_env vb.Parsetree.pvb_expr))
          one vbs
      in
      let body_env =
        List.fold_left
          (fun ls vb ->
            match (vb.Parsetree.pvb_pat.ppat_desc, Typed_scan.peel_params vb.Parsetree.pvb_expr) with
            | Ppat_var { txt; _ }, Some (_, fbody) -> (txt, Body (fbody, def_env)) :: ls
            | _ -> ls)
          shadowed vbs
      in
      seq defp (paths st ~m body_env body)
  | Pexp_ifthenelse (c, t, f) ->
      seq (paths st ~m locals c)
        (union (paths st ~m locals t)
           (match f with Some f -> paths st ~m locals f | None -> one))
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      seq (paths st ~m locals s)
        (List.fold_left
           (fun acc (c : Parsetree.case) ->
             let env = opaque locals (pattern_vars c.pc_lhs) in
             let p =
               match c.pc_guard with
               | Some g -> seq (paths st ~m env g) (paths st ~m env c.pc_rhs)
               | None -> paths st ~m env c.pc_rhs
             in
             union acc p)
           [] cases)
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> closure st ~m locals e
  | Pexp_while (c, b) -> seq (paths st ~m locals c) (loop st ~m locals b)
  | Pexp_for (p, lo, hi, _, b) ->
      let env = opaque locals (pattern_vars p) in
      seq (seq (paths st ~m locals lo) (paths st ~m locals hi)) (loop st ~m env b)
  | Pexp_constraint (a, _)
  | Pexp_coerce (a, _, _)
  | Pexp_open (_, a)
  | Pexp_assert a
  | Pexp_lazy a
  | Pexp_construct (_, Some a)
  | Pexp_variant (_, Some a)
  | Pexp_field (a, _)
  | Pexp_letmodule (_, _, a)
  | Pexp_letexception (_, a) ->
      paths st ~m locals a
  | Pexp_setfield (a, _, b) -> seq (paths st ~m locals a) (paths st ~m locals b)
  | Pexp_tuple es | Pexp_array es ->
      List.fold_left (fun acc x -> seq acc (paths st ~m locals x)) one es
  | Pexp_record (fs, base) ->
      let es = List.map snd fs @ (match base with Some b -> [ b ] | None -> []) in
      List.fold_left (fun acc x -> seq acc (paths st ~m locals x)) one es
  | _ -> one

(* A lambda's body runs zero or more times, at unknown call sites.  A
   phase recorded inside is therefore not a statically fixed schedule —
   that is its own finding.  A sub-protocol run inside is modeled as
   zero-or-once: parallel composition makes repetitions idempotent for
   the schedule (Dip.merge_parallel keeps the longest phase list). *)
and closure st ~m locals e =
  let rec inner locals (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (_, default, pat, body) ->
        let dp = match default with Some d -> paths st ~m locals d | None -> one in
        seq dp (inner (opaque locals (pattern_vars pat)) body)
    | Pexp_newtype (_, body) -> inner locals body
    | Pexp_function cases ->
        List.fold_left
          (fun acc (c : Parsetree.case) ->
            union acc (paths st ~m (opaque locals (pattern_vars c.pc_lhs)) c.pc_rhs))
          [] cases
    | _ -> paths st ~m locals e
  in
  optionalize st ~m ~loc:e.pexp_loc (inner locals e)

and loop st ~m locals b = optionalize st ~m ~loc:b.Parsetree.pexp_loc (paths st ~m locals b)

and optionalize st ~m ~loc ps =
  let has_rec = List.exists (List.exists (function Rec _ -> true | Sub _ -> false)) ps in
  if has_rec && String.equal m st.self_mod then Hashtbl.replace st.closures loc ();
  let subs =
    List.concat_map (List.filter_map (function Sub s -> Some s | Rec _ -> None)) ps
    |> List.sort_uniq String.compare
  in
  match subs with [] -> one | _ -> [ []; List.map (fun s -> Sub s) subs ]

and call_paths st ~m locals f =
  match List.assoc_opt f locals with
  | Some Opaque -> one
  | Some (Body (b, env)) -> paths st ~m ((f, Opaque) :: env) b
  | None -> (
      let key = m ^ "." ^ f in
      match Hashtbl.find_opt st.helpers key with
      | Some ps -> ps
      | None ->
          Hashtbl.replace st.helpers key one;
          (* recursion guard *)
          let ps =
            match lookup st ~m f with
            | None -> one
            | Some (en : Typed_scan.entry) ->
                paths st ~m (opaque [ (f, Opaque) ] en.params) en.body
          in
          Hashtbl.replace st.helpers key ps;
          ps)

(* ---- schedule merging ------------------------------------------------- *)

let run_paths st m =
  Option.map
    (fun (en : Typed_scan.entry) -> paths st ~m (opaque [ ("run", Opaque) ] en.params) en.body)
    (lookup st ~m "run")

type merge_result =
  | Consistent of ph list * bool  (** merged schedule, [true] if an unresolved sub remains *)
  | Conflict of ph list * ph list

(* Parallel composition of the path's own phase sequence with every
   sub-protocol's expanded schedule: the longest wins, and every
   component must be a prefix of it (Dip.merge_parallel semantics). *)
let rec merge st path =
  let own = List.filter_map (function Rec p -> Some p | Sub _ -> None) path in
  let subs = List.filter_map (function Sub s -> Some s | Rec _ -> None) path in
  let resolved, unknown =
    List.fold_left
      (fun (rs, unk) s ->
        match module_schedule st s with Some sc -> (sc :: rs, unk) | None -> (rs, true))
      ([], false) subs
  in
  let comps = own :: resolved in
  let longest =
    List.fold_left (fun best c -> if List.length c > List.length best then c else best) [] comps
  in
  match List.find_opt (fun c -> not (sched_prefix c longest)) comps with
  | Some c -> Conflict (c, longest)
  | None -> Consistent (longest, unknown)

(* The honest full execution of a module: the longest fully resolved,
   internally consistent merged schedule over all paths of its [run]. *)
and module_schedule st m =
  match Hashtbl.find_opt st.mods m with
  | Some s -> s
  | None ->
      Hashtbl.replace st.mods m None;
      (* cycle guard: unknown *)
      let s =
        match run_paths st m with
        | None -> None
        | Some ps ->
            List.fold_left
              (fun best p ->
                match merge st p with
                | Consistent (sched, false) -> (
                    match best with
                    | Some b when List.length b >= List.length sched -> best
                    | _ -> Some sched)
                | Consistent (_, true) | Conflict _ -> best)
              None ps
      in
      Hashtbl.replace st.mods m s;
      s

(* ---- the check -------------------------------------------------------- *)

let run_binding_loc structure =
  List.find_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.find_map
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = "run"; _ } -> Some vb.pvb_pat.ppat_loc
              | _ -> None)
            vbs
      | _ -> None)
    structure

let check_structure ~program ?declared ~require_declared ~filename structure =
  match run_binding_loc structure with
  | None -> []
  | Some loc -> (
      let modname = Typed_scan.module_name filename in
      let st =
        {
          program;
          path = filename;
          self_mod = modname;
          helpers = Hashtbl.create 16;
          mods = Hashtbl.create 8;
          closures = Hashtbl.create 4;
        }
      in
      match run_paths st modname with
      | None -> []
      | Some ps -> (
          let findings = ref [] in
          let add ~loc msg =
            findings := Report.finding ~loc ~rule:rule_budget msg :: !findings
          in
          let has_events =
            List.exists (function [] -> false | _ :: _ -> true) ps
            || Hashtbl.length st.closures > 0
          in
          match declared with
          | None ->
              if require_declared && has_events then
                [
                  Report.finding ~loc ~rule:rule_budget
                    "run records interaction phases but the module has no row in the \
                     declared-bounds registry; add one to lib/protocols/bounds.ml";
                ]
              else []
          | Some d ->
              Hashtbl.iter
                (fun cl () ->
                  add ~loc:cl
                    "phase recorded inside a closure or loop: the interaction schedule is \
                     not statically fixed; hoist Dip.record_prover/record_verifier to the \
                     top level of run")
                st.closures;
              if d.rounds <> List.length d.schedule then
                add ~loc
                  (Printf.sprintf
                     "declared rounds %d disagree with the declared schedule %s (registry \
                      row '%s' is self-inconsistent)"
                     d.rounds (render d.schedule) d.id);
              let any_unknown = ref false
              and exact = ref false
              and deviated = ref false
              and best = ref [] in
              List.iter
                (fun p ->
                  match merge st p with
                  | Conflict (a, b) ->
                      deviated := true;
                      add ~loc
                        (Printf.sprintf
                           "statically inconsistent parallel schedules on one execution \
                            path: %s is not a prefix of %s"
                           (render a) (render b))
                  | Consistent (sched, unknown) ->
                      if unknown then any_unknown := true;
                      if not (sched_prefix sched d.schedule) then begin
                        deviated := true;
                        add ~loc
                          (Printf.sprintf
                             "extracted schedule %s deviates from the declared %s \
                              (registry row '%s', %d rounds)"
                             (render sched) (render d.schedule) d.id d.rounds)
                      end
                      else begin
                        if List.length sched > List.length !best then best := sched;
                        if sched_equal sched d.schedule then exact := true
                      end)
                ps;
              if
                (not !exact) && (not !any_unknown) && (not !deviated)
                && Hashtbl.length st.closures = 0
              then
                add ~loc
                  (Printf.sprintf
                     "no execution path realizes the declared schedule %s (longest \
                      extracted: %s; registry row '%s')"
                     (render d.schedule) (render !best) d.id);
              List.sort_uniq Report.compare !findings))
