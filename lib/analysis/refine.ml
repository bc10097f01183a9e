(* dipp-refine: a numeric refinement pass over the parsetree.

   The pass runs an interprocedural interval/affine abstract
   interpretation in which every integer carries an interval of affine
   forms over the symbolic size terms [loglog] (ceil_log2 (ceil_log2 n)),
   [log] (ceil_log2 n) and [logdelta] (ceil_log2 (max 2 delta)), and
   every [Bits.t] carries an interval on its *length*.  The transfer
   functions for the [Bits] constructors ([of_int ~width], [append],
   [concat], [sub ~len], the [Writer] accumulator, ...) propagate
   lengths exactly; [Array]/[List] higher-order combinators carry
   element-width and length intervals through [map]/[init]/[append].
   Let-bound and cross-module helpers are evaluated at their call sites
   through the {!Typed_scan} whole-program index (so summaries are
   affine in the actual arguments), with a recursion guard and an eval
   fuel making the pass total.

   Trusted declared widths enter through annotation comments on the
   binding's (or call's) own line or the line above:

     (* dipp-refine: value <= 3*loglog + 6 *)   — an int binding
     (* dipp-refine: width <= 40*loglog + 40 *) — a Bits binding,
       function result, or record_prover call site

   Both kinds assert the value lies in [0, FORM].  Annotations are the
   axioms of the analysis; they are kept honest by the runtime
   measurements ([bench bounds] reports claim / inferred / measured side
   by side).

   Rules emitted:
   - [refine-budget] — in a module with a declared-bounds registry row
     (lib/protocols/bounds.ml), every [Dip.record_prover] site in [run]
     must have a label-width upper bound provably below the declared
     envelope shape.  Unprovable or exceeding sites are per-expression
     findings.  (Parallel sub-protocol composition sums are a runtime
     matter — [Dip.check_budget]; the static rule bounds each phase's
     widest own label, which is what catches a family-level regression.)
   - [refine-index] — array/string/Bits subscripts inside decision
     functions are re-proved in bounds from the inferred intervals;
     provable violations are findings, proved-safe subscripts are
     collected (see {!result.safe}).  [Bits.unsafe_sub] is gated
     everywhere: any call site the pass cannot prove in-range is a
     finding.
   - [refine-annotation] — a dipp-refine comment that does not parse.

   Soundness of the form comparator: for n >= 1 and 0 <= delta <= n,
   1 <= loglog <= log and 1 <= logdelta <= log, so a negative
   loglog/logdelta coefficient in (g - f) may be folded into the log
   coefficient when deciding f <= g. *)

let rule_budget = "refine-budget"
let rule_index = "refine-index"
let rule_annotation = "refine-annotation"

module Smap = Map.Make (String)

(* ---- affine forms over symbolic size terms --------------------------- *)

type term = Loglog | Log | Logdelta | Param of string

module Term = struct
  type t = term

  let rank = function Loglog -> 0 | Log -> 1 | Logdelta -> 2 | Param _ -> 3

  let compare a b =
    match (a, b) with
    | Param x, Param y -> String.compare x y
    | _ -> Int.compare (rank a) (rank b)
end

module Tmap = Map.Make (Term)

type form = { const : int; terms : int Tmap.t }

let f_const c = { const = c; terms = Tmap.empty }
let f_zero = f_const 0
let f_term ?(coeff = 1) t = { const = 0; terms = Tmap.singleton t coeff }

let norm terms = Tmap.filter (fun _ c -> c <> 0) terms

let f_add a b =
  {
    const = a.const + b.const;
    terms = norm (Tmap.union (fun _ x y -> Some (x + y)) a.terms b.terms);
  }

let f_scale k f = { const = k * f.const; terms = norm (Tmap.map (fun c -> k * c) f.terms) }
let f_sub a b = f_add a (f_scale (-1) b)
let f_addc f k = { f with const = f.const + k }
let f_is_const f = Tmap.is_empty f.terms

let term_name = function
  | Loglog -> "loglog"
  | Log -> "log"
  | Logdelta -> "logdelta"
  | Param p -> p

let pp_form ppf f =
  let parts =
    Tmap.fold
      (fun t c acc ->
        (if c = 1 then term_name t else Printf.sprintf "%d*%s" c (term_name t)) :: acc)
      f.terms []
    |> List.rev
  in
  let parts =
    if f.const <> 0 || (match parts with [] -> true | _ :: _ -> false) then
      parts @ [ string_of_int f.const ]
    else parts
  in
  Format.pp_print_string ppf (String.concat " + " parts)

let form_to_string f = Format.asprintf "%a" pp_form f

(* Sound comparator: [leq f g] holds only if f <= g for every n >= 1,
   0 <= delta <= n.  Negative loglog/logdelta coefficients of (g - f)
   fold into the log coefficient (log dominates both and every term is
   >= 1); parameter terms must cancel exactly. *)
let leq f g =
  let h = f_sub g f in
  let ok = ref true in
  let ll = ref 0 and lg = ref 0 and ld = ref 0 in
  Tmap.iter
    (fun t c ->
      match t with
      | Loglog -> ll := c
      | Log -> lg := c
      | Logdelta -> ld := c
      | Param _ -> if c <> 0 then ok := false)
    h.terms;
  let a = !lg + min !ll 0 + min !ld 0 in
  !ok && a >= 0 && a + max !ll 0 + max !ld 0 + h.const >= 0

let f_equal a b = leq a b && leq b a

(* Pointwise coefficient max/min: sound upper (resp. lower) bound for the
   max (resp. min) of two forms, since every term is nonnegative. *)
let f_cmax a b =
  {
    const = max a.const b.const;
    terms =
      norm
        (Tmap.merge
           (fun _ x y -> Some (max (Option.value x ~default:0) (Option.value y ~default:0)))
           a.terms b.terms);
  }

let f_cmin a b =
  {
    const = min a.const b.const;
    terms =
      norm
        (Tmap.merge
           (fun _ x y -> Some (min (Option.value x ~default:0) (Option.value y ~default:0)))
           a.terms b.terms);
  }

let eval_form f ~n ~delta =
  let ok = ref true in
  let v =
    Tmap.fold
      (fun t c acc ->
        match t with
        | Loglog -> acc + (c * Dipp_protocols.Bounds.loglog n)
        | Log -> acc + (c * Dipp_protocols.Bounds.ceil_log2 n)
        | Logdelta -> acc + (c * Dipp_protocols.Bounds.ceil_log2 (max 2 delta))
        | Param _ ->
            ok := false;
            acc)
      f.terms f.const
  in
  if !ok then Some v else None

(* ---- intervals ------------------------------------------------------- *)

type iv = { lo : form option; hi : form option }

let iv_top = { lo = None; hi = None }
let iv_exact f = { lo = Some f; hi = Some f }
let iv_const c = iv_exact (f_const c)
let iv_nonneg = { lo = Some f_zero; hi = None }
let iv_of_hi f = { lo = Some f_zero; hi = Some f }

let omap2 f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let iv_add a b = { lo = omap2 f_add a.lo b.lo; hi = omap2 f_add a.hi b.hi }

let iv_sub a b =
  { lo = omap2 f_sub a.lo b.hi; hi = omap2 f_sub a.hi b.lo }

let iv_addc a k =
  { lo = Option.map (fun f -> f_addc f k) a.lo; hi = Option.map (fun f -> f_addc f k) a.hi }

let iv_scale k a =
  if k >= 0 then
    { lo = Option.map (f_scale k) a.lo; hi = Option.map (f_scale k) a.hi }
  else { lo = Option.map (f_scale k) a.hi; hi = Option.map (f_scale k) a.lo }

let iv_join a b = { lo = omap2 f_cmin a.lo b.lo; hi = omap2 f_cmax a.hi b.hi }

(* Upper bound of min: either operand's hi is sound; prefer the provably
   smaller one.  Dual for lower bound of max. *)
let pick_min a b =
  match (a, b) with
  | Some x, Some y -> Some (if leq y x then y else x)
  | Some x, None -> Some x
  | None, y -> y

let pick_max a b =
  match (a, b) with
  | Some x, Some y -> Some (if leq x y then y else x)
  | Some x, None -> Some x
  | None, y -> y

let iv_min a b = { lo = omap2 f_cmin a.lo b.lo; hi = pick_min a.hi b.hi }
let iv_max a b = { lo = pick_max a.lo b.lo; hi = omap2 f_cmax a.hi b.hi }

let iv_known_const a =
  match (a.lo, a.hi) with
  | Some l, Some h when f_is_const l && f_is_const h && l.const = h.const -> Some l.const
  | _ -> None

let iv_mul a b =
  match (iv_known_const a, iv_known_const b) with
  | Some k, _ -> iv_scale k b
  | _, Some k -> iv_scale k a
  | None, None -> iv_top

let iv_nonneg_lo a = match a.lo with Some l -> leq f_zero l | None -> false

(* ---- annotations ----------------------------------------------------- *)

type ann_kind = Width | Value

type ann = { kind : ann_kind; bound : form }

type annots = { tbl : (int, ann) Hashtbl.t; bad : (int * string) list }

let parse_term_name s =
  match s with
  | "loglog" -> Some Loglog
  | "log" -> Some Log
  | "logdelta" -> Some Logdelta
  | _ -> if s <> "" && String.for_all Ast_scan.is_ident_char s then Some (Param s) else None

let parse_form s =
  let atoms = String.split_on_char '+' s |> List.map String.trim in
  List.fold_left
    (fun acc atom ->
      match acc with
      | None -> None
      | Some f -> (
          match List.map String.trim (String.split_on_char '*' atom) with
          | [ a ] -> (
              match int_of_string_opt a with
              | Some c -> Some (f_addc f c)
              | None -> Option.map (fun t -> f_add f (f_term t)) (parse_term_name a))
          | [ a; b ] -> (
              match (int_of_string_opt a, parse_term_name b) with
              | Some c, Some t -> Some (f_add f (f_term ~coeff:c t))
              | _ -> None)
          | _ -> None))
    (Some f_zero) atoms

let annotations_of_source src =
  let tbl = Hashtbl.create 8 and bad = ref [] in
  List.iter
    (fun (line, rest) ->
      let malformed msg = bad := (line, msg) :: !bad in
      (* Prose that merely mentions the marker (docs, rule summaries)
         is not an annotation attempt: require a width/value keyword
         or a <= to engage, then insist the whole thing parses. *)
      let trimmed = String.trim rest in
      let starts_kw kw =
        String.starts_with ~prefix:kw trimmed
        && (String.length trimmed = String.length kw
           || not (Ast_scan.is_ident_char trimmed.[String.length kw]))
      in
      if not (starts_kw "width" || starts_kw "value" || Ast_scan.find_sub rest "<=" <> None) then ()
      else
        match String.index_opt rest '=' with
        | Some k when k > 0 && rest.[k - 1] = '<' -> (
            let kw = String.trim (String.sub rest 0 (k - 1)) in
            let body = String.sub rest (k + 1) (String.length rest - k - 1) in
            let kind = match kw with "width" -> Some Width | "value" -> Some Value | _ -> None in
            match (kind, parse_form body) with
            | Some kind, Some bound -> Hashtbl.replace tbl line { kind; bound }
            | None, _ ->
                malformed
                  (Printf.sprintf "expected `width <= FORM` or `value <= FORM`, got `%s`" kw)
            | _, None ->
                malformed
                  (Printf.sprintf
                     "cannot parse bound `%s` (FORM is a sum of INT, NAME and INT*NAME atoms)"
                     (String.trim body)))
        | _ -> malformed "expected `width <= FORM` or `value <= FORM` after the marker")
    (Ast_scan.marker_comments ~marker:"dipp-refine:" src);
  { tbl; bad = List.rev !bad }

let no_annots () = { tbl = Hashtbl.create 1; bad = [] }

let annotation_findings ~filename annots =
  List.map
    (fun (line, msg) ->
      { Report.file = filename; line; col = 0; rule = rule_annotation; msg })
    annots.bad

(* An annotation covers the bindings (or call) on its own line or the
   line below it, like lint suppressions. *)
let ann_at annots ~line = Option.map snd (Ast_scan.annotation_at annots.tbl ~line)

(* ---- abstract values ------------------------------------------------- *)

type value =
  | Dyn
  | Inst of string
      (* an arbitrary-but-fixed driver argument ("inst", "g", ...); field
         reads produce stable symbolic Param terms ("inst.n") so sizes
         derived from the same instance relate to each other *)
  | Ival of iv  (* integer *)
  | Bval of iv  (* Bits.t, interval on its length *)
  | Sval of iv  (* string/bytes, interval on its length *)
  | Barr of { alen : iv; elem : iv }  (* Bits.t array *)
  | Aval of { alen : iv }  (* any other array *)
  | Lvals of value list  (* literal list, element values in order *)
  | Llist of { count : iv; elem : value }  (* homogeneous list *)
  | Wval of wcell  (* Bits.Writer.t accumulator *)
  | Rcell of rcell  (* int ref *)
  | Fval of fn  (* function value / closure *)
  | Builtin of { path : string * string; bargs : (Asttypes.arg_label * value) list }

and wcell = { mutable acc : iv }
and rcell = { mutable cell : iv }

and fn = {
  fparams : (Asttypes.arg_label * Parsetree.expression option * Parsetree.pattern) list;
  fenv : value Smap.t;
  fbody : Parsetree.expression;
  fann : form option;  (* width annotation on the binding *)
  fkey : string;  (* recursion guard key *)
}

let as_int = function
  | Ival iv -> iv
  | Inst name -> iv_exact (f_term (Param name))
  | Rcell c -> c.cell
  | _ -> iv_top

let as_bits_len = function Bval iv -> iv | _ -> iv_top

let value_join a b =
  match (a, b) with
  | Dyn, _ | _, Dyn -> Dyn
  | Inst x, Inst y -> if String.equal x y then a else Dyn
  | Ival x, Ival y -> Ival (iv_join x y)
  | Bval x, Bval y -> Bval (iv_join x y)
  | Sval x, Sval y -> Sval (iv_join x y)
  | Barr x, Barr y -> Barr { alen = iv_join x.alen y.alen; elem = iv_join x.elem y.elem }
  | Aval x, Aval y -> Aval { alen = iv_join x.alen y.alen }
  | Rcell x, Rcell y -> if x == y then a else Ival (iv_join x.cell y.cell)
  | Fval _, Fval _ -> if a == b then a else Dyn
  | _ -> Dyn

(* ---- the evaluator --------------------------------------------------- *)

type safe = { sfile : string; sline : int; scol : int; sdesc : string }

type ctx = {
  filename : string;
  modname : string;
  annots : annots;
  program : Typed_scan.program;
  declared : form option;
  mutable fuel : int;
  mutable stack : string list;  (* recursion-guard keys *)
  mutable audit_index : bool;
  mutable findings : Report.finding list;
  mutable safes : safe list;
  mutable sites : (Location.t * iv) list;  (* own record_prover sites *)
  mutable cells : cell_reg list;  (* every mutable cell, for branch joins *)
  mutable last_unresolved : (int * string) option;
  mutable unsafe_audited : (int * int) list;  (* unsafe_sub sites seen *)
  module_envs : (string, value Smap.t) Hashtbl.t;
  sibling_annots : (string, annots) Hashtbl.t;  (* by path, of the modules evaluated *)
  mutable modules_in_progress : string list;
}

and cell_reg = Wc of wcell | Rc of rcell

let own_loc ctx (loc : Location.t) = String.equal loc.loc_start.pos_fname ctx.filename

let add_finding ctx ~loc ~rule msg =
  if own_loc ctx loc then ctx.findings <- Report.finding ~loc ~rule msg :: ctx.findings

let add_safe ctx ~(loc : Location.t) desc =
  if own_loc ctx loc then
    ctx.safes <-
      {
        sfile = loc.loc_start.pos_fname;
        sline = loc.loc_start.pos_lnum;
        scol = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        sdesc = desc;
      }
      :: ctx.safes

(* Every binding evaluated outside the checked file belongs to a module
   [module_env] evaluated, which registered that file's annotations. *)
let annots_for_file ctx file =
  if String.equal file ctx.filename then ctx.annots
  else match Hashtbl.find_opt ctx.sibling_annots file with Some a -> a | None -> no_annots ()

let pat_var (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(* Peels a [fun]/[newtype] chain keeping labels, defaults and patterns. *)
let rec peel acc (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, default, pat, body) -> peel ((lbl, default, pat) :: acc) body
  | Pexp_newtype (_, body) -> peel acc body
  | _ -> (List.rev acc, e)

let loc_key (loc : Location.t) =
  Printf.sprintf "%s:%d:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum
    (loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let interval_to_string iv =
  Printf.sprintf "[%s, %s]"
    (match iv.lo with Some f -> form_to_string f | None -> "?")
    (match iv.hi with Some f -> form_to_string f | None -> "?")

let snapshot_cells ctx =
  List.map (function Wc w -> (Wc w, w.acc) | Rc r -> (Rc r, r.cell)) ctx.cells

let restore_cells snap =
  List.iter (function Wc w, iv -> w.acc <- iv | Rc r, iv -> r.cell <- iv) snap

let cell_states ctx =
  List.map (function Wc w -> w.acc | Rc r -> r.cell) ctx.cells

let form_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> f_equal x y
  | _ -> false

let iv_equal a b = form_opt_equal a.lo b.lo && form_opt_equal a.hi b.hi

let widen_changed old_iv new_iv =
  {
    lo = (if form_opt_equal old_iv.lo new_iv.lo then old_iv.lo else None);
    hi = (if form_opt_equal old_iv.hi new_iv.hi then old_iv.hi else None);
  }

exception Out_of_fuel

let rec eval ctx env (e : Parsetree.expression) : value =
  if ctx.fuel <= 0 then raise Out_of_fuel;
  ctx.fuel <- ctx.fuel - 1;
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, _)) -> (
      match int_of_string_opt s with Some v -> Ival (iv_const v) | None -> Ival iv_top)
  | Pexp_constant (Pconst_string (s, _, _)) -> Sval (iv_const (String.length s))
  | Pexp_constant _ -> Dyn
  | Pexp_ident { txt; loc } -> eval_ident ctx env ~loc txt
  | Pexp_let (_, vbs, body) ->
      let env = List.fold_left (fun env vb -> bind_vb ctx env vb) env vbs in
      eval ctx env body
  | Pexp_fun _ | Pexp_newtype _ ->
      let fparams, fbody = peel [] e in
      Fval { fparams; fenv = env; fbody; fann = None; fkey = loc_key e.pexp_loc }
  | Pexp_function cases ->
      (* model as a one-parameter function that joins all case bodies *)
      Fval
        {
          fparams = [ (Asttypes.Nolabel, None, Ast_helper.Pat.any ()) ];
          fenv = env;
          fbody =
            (match cases with
            | [ { pc_rhs; _ } ] -> pc_rhs
            | _ -> e (* multi-case: handled at apply via eval_cases *));
          fann = None;
          fkey = loc_key e.pexp_loc;
        }
  | Pexp_apply (f, args) -> eval_apply ctx env ~loc:e.pexp_loc f args
  | Pexp_match (scrut, cases) ->
      ignore (eval ctx env scrut);
      eval_cases ctx env cases
  | Pexp_try (body, cases) ->
      let v = eval ctx env body in
      value_join v (eval_cases ctx env cases)
  | Pexp_tuple es ->
      List.iter (fun e -> ignore (eval ctx env e)) es;
      Dyn
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
    -> (
      let h = eval ctx env hd in
      match eval ctx env tl with
      | Lvals vs -> Lvals (h :: vs)
      | Llist { count; elem } -> Llist { count = iv_addc count 1; elem = value_join h elem }
      | _ -> Llist { count = iv_nonneg; elem = Dyn })
  | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> Lvals []
  | Pexp_construct ({ txt = Longident.Lident ("Some" | "Ok" | "Error"); _ }, Some arg) ->
      ignore (eval ctx env arg);
      Dyn
  | Pexp_construct (_, arg) ->
      Option.iter (fun a -> ignore (eval ctx env a)) arg;
      Dyn
  | Pexp_variant (_, arg) ->
      Option.iter (fun a -> ignore (eval ctx env a)) arg;
      Dyn
  | Pexp_record (fields, base) ->
      Option.iter (fun b -> ignore (eval ctx env b)) base;
      List.iter (fun (_, fe) -> ignore (eval ctx env fe)) fields;
      Dyn
  | Pexp_field (b, { txt = lid; _ }) -> (
      match eval ctx env b with
      | Inst name ->
          let f =
            match lid with
            | Longident.Lident f | Longident.Ldot (_, f) -> f
            | Longident.Lapply _ -> "?"
          in
          Inst (name ^ "." ^ f)
      | _ -> Dyn)
  | Pexp_setfield (b, _, v) ->
      ignore (eval ctx env b);
      ignore (eval ctx env v);
      Dyn
  | Pexp_array es ->
      let vs = List.map (eval ctx env) es in
      let n = iv_const (List.length vs) in
      if List.exists (function Bval _ -> true | _ -> false) vs then
        Barr
          {
            alen = n;
            elem = List.fold_left (fun acc v -> iv_join acc (as_bits_len v)) (iv_const 0) vs;
          }
      else Aval { alen = n }
  | Pexp_ifthenelse (cond, then_, else_) -> (
      ignore (eval ctx env cond);
      let then_env = refine_env ctx env cond in
      let snap = snapshot_cells ctx in
      let vt = eval ctx then_env then_ in
      let then_state = cell_states ctx in
      restore_cells snap;
      match else_ with
      | None ->
          (* join mutations of the taken/untaken branch *)
          join_cell_states ctx then_state;
          Dyn
      | Some else_ ->
          let ve = eval ctx env else_ in
          join_cell_states ctx then_state;
          value_join vt ve)
  | Pexp_sequence (a, b) ->
      ignore (eval ctx env a);
      eval ctx env b
  | Pexp_while (cond, body) ->
      eval_loop ctx env ~pre:(fun () -> ignore (eval ctx env cond)) ~body;
      Dyn
  | Pexp_for (pat, lo, hi, dir, body) ->
      let lo_v = as_int (eval ctx env lo) and hi_v = as_int (eval ctx env hi) in
      let idx =
        match dir with
        | Asttypes.Upto -> { lo = lo_v.lo; hi = hi_v.hi }
        | Asttypes.Downto -> { lo = hi_v.lo; hi = lo_v.hi }
      in
      let env =
        match pat_var pat with Some x -> Smap.add x (Ival idx) env | None -> env
      in
      eval_loop ctx env ~pre:(fun () -> ()) ~body;
      Dyn
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> eval ctx env e
  | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) -> eval ctx env e
  | Pexp_assert e | Pexp_lazy e ->
      ignore (eval ctx env e);
      Dyn
  | Pexp_setinstvar _ | Pexp_send _ | Pexp_new _ | Pexp_override _ | Pexp_object _ -> Dyn
  | Pexp_pack _ | Pexp_letop _ | Pexp_extension _ | Pexp_unreachable | Pexp_poly _ -> Dyn

and join_cell_states ctx branch_state =
  (* current cells hold the other branch's effects; fold in [branch_state] *)
  let rec go cells states =
    match (cells, states) with
    | Wc w :: cs, s :: ss ->
        w.acc <- iv_join w.acc s;
        go cs ss
    | Rc r :: cs, s :: ss ->
        r.cell <- iv_join r.cell s;
        go cs ss
    | _ -> ()
  in
  go ctx.cells branch_state

and eval_cases ctx env cases =
  (* evaluate every case body from the same cell snapshot and join *)
  let snap = snapshot_cells ctx in
  let states = ref [] in
  let v =
    List.fold_left
      (fun acc (case : Parsetree.case) ->
        restore_cells snap;
        let env =
          List.fold_left
            (fun env x -> Smap.add x Dyn env)
            env
            (Ast_scan.pattern_vars case.pc_lhs)
        in
        Option.iter (fun g -> ignore (eval ctx env g)) case.pc_guard;
        let v = eval ctx env case.pc_rhs in
        states := cell_states ctx :: !states;
        match acc with None -> Some v | Some a -> Some (value_join a v))
      None cases
  in
  restore_cells snap;
  List.iter (join_cell_states ctx) !states;
  match v with Some v -> v | None -> Dyn

and eval_loop ctx env ~pre ~body =
  (* Widening: evaluate the body, widen any cell whose interval changed
     to unbounded on the changed side, and re-evaluate; two rounds reach
     a fixpoint because each bound can only widen once (a third pass
     covers effects of the widened values). *)
  let rec go rounds =
    if rounds <= 0 then ()
    else begin
      let snap = snapshot_cells ctx in
      pre ();
      ignore (eval ctx env body);
      let changed = ref false in
      List.iter
        (fun (reg, old_iv) ->
          let cur = match reg with Wc w -> w.acc | Rc r -> r.cell in
          if not (iv_equal old_iv cur) then begin
            changed := true;
            let widened = widen_changed old_iv cur in
            match reg with Wc w -> w.acc <- widened | Rc r -> r.cell <- widened
          end)
        snap;
      if !changed then go (rounds - 1)
    end
  in
  go 3

and bind_vb ctx env (vb : Parsetree.value_binding) =
  (* Annotations come from the file the binding lives in, so helpers in
     other modules read their own annotation tables. *)
  let start = vb.pvb_pat.ppat_loc.loc_start in
  let annots = annots_for_file ctx start.pos_fname in
  let ann = ann_at annots ~line:start.pos_lnum in
  bind_pattern ctx env ~ann vb.pvb_pat vb.pvb_expr

and bind_pattern ctx env ~ann pat expr =
  match pat_var pat with
  | Some x -> Smap.add x (eval_binding ctx env ~ann expr) env
  | None ->
      ignore (eval ctx env expr);
      List.fold_left (fun env x -> Smap.add x Dyn env) env (Ast_scan.pattern_vars pat)

and eval_binding ctx env ~ann expr =
  let fparams, _ = peel [] expr in
  match (fparams, ann) with
  | _ :: _, Some { kind = Width; bound } ->
      let fparams, fbody = peel [] expr in
      Fval { fparams; fenv = env; fbody; fann = Some bound; fkey = loc_key expr.pexp_loc }
  | _, Some { kind = Value; bound } ->
      ignore (try_eval ctx env expr);
      Ival (iv_of_hi bound)
  | [], Some { kind = Width; bound } ->
      ignore (try_eval ctx env expr);
      Bval (iv_of_hi bound)
  | _, None -> eval ctx env expr

and try_eval ctx env expr = try eval ctx env expr with Out_of_fuel -> Dyn

and eval_ident ctx env ~loc txt =
  match txt with
  | Longident.Lident x -> (
      match Smap.find_opt x env with
      | Some v -> v
      | None -> (
          match x with
          | "min" | "max" | "abs" | "succ" | "pred" | "ref" | "not" | "ignore" | "incr"
          | "decr" | "fst" | "snd" | "string_of_int" | "int_of_string"
          | "+" | "-" | "*" | "/" | "mod" | "land" | "lor" | "lxor" | "lsl" | "lsr" | "asr"
          | "@" | "!" | ":=" | "=" | "<>" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "&&" | "||" ->
              Builtin { path = ("Stdlib", x); bargs = [] }
          | _ -> Dyn))
  | _ -> (
      match Ast_scan.last_two txt with
      | Some (("Bits" | "Bits_flat" | "Enc" | "Dec" | "Writer" | "Reader" | "Array" | "List"
              | "String" | "Bytes" | "Option"
              | "Dip" | "Stdlib" | "Int" | "Char" | "Hashtbl" | "Queue" | "Stack" | "Buffer"
              | "Format" | "Printf" | "Seq" | "Fun" | "Result" | "Float" | "Sys" | "Filename")
              as m,
             f) -> (
          match (m, f) with
          | "Bits", "empty" -> Bval (iv_const 0)
          | _ -> Builtin { path = (m, f); bargs = [] })
      | Some (m, f) -> (
          match resolve_qualified ctx ~m ~f with
          | Some v -> v
          | None ->
              ctx.last_unresolved <- Some (loc.Location.loc_start.pos_lnum, m ^ "." ^ f);
              Dyn)
      | None -> Dyn)

(* Cross-module resolution: evaluate the whole target module's top level
   once (memoized) with its own annotations, then look the name up in the
   resulting environment. *)
and resolve_qualified ctx ~m ~f =
  match Typed_scan.lookup ctx.program ~modname:m ~name:f with
  | None -> None
  | Some entry -> (
      match module_env ctx ~m ~file:entry.file with
      | Some env -> Smap.find_opt f env
      | None -> None)

and module_env ctx ~m ~file =
  match Hashtbl.find_opt ctx.module_envs m with
  | Some env -> Some env
  | None -> (
      match Typed_scan.find_file ctx.program file with
      | Some { Typed_scan.parsed = Ok structure; text; _ }
        when not (List.exists (String.equal m) ctx.modules_in_progress) ->
          Hashtbl.replace ctx.sibling_annots file (annotations_of_source text);
          ctx.modules_in_progress <- m :: ctx.modules_in_progress;
          let env = eval_structure ctx structure in
          ctx.modules_in_progress <- List.filter (fun x -> not (String.equal x m)) ctx.modules_in_progress;
          Hashtbl.replace ctx.module_envs m env;
          Some env
      | Some _ | None -> None)

(* Top-level environment of a structure: bindings evaluated in order
   (annotation tables are resolved per binding from its source file). *)
and eval_structure ctx structure =
  List.fold_left
    (fun env (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left (fun env vb -> try bind_vb ctx env vb with Out_of_fuel -> env) env vbs
      | _ -> env)
    Smap.empty structure

and eval_apply ctx env ~loc f args =
  let fv = eval ctx env f in
  let argvs = List.map (fun (lbl, a) -> (lbl, a, eval ctx env a)) args in
  apply ctx ~loc fv (List.map (fun (lbl, _, v) -> (lbl, v)) argvs)

and apply ctx ~loc fv args =
  match fv with
  | Builtin { path; bargs } -> apply_builtin ctx ~loc path (bargs @ args)
  | Fval fn -> apply_fn ctx ~loc fn args
  | _ -> Dyn

and apply_fn ctx ~loc:_ fn args =
  (* annotated function: the annotation is the summary *)
  let bind_params fn args =
    (* match labelled args by name, positional args in order *)
    let remaining = ref fn.fparams in
    let env = ref fn.fenv in
    let take_labelled name =
      let rec go acc = function
        | ((Asttypes.Labelled l | Asttypes.Optional l), _, pat) :: rest when String.equal l name ->
            remaining := List.rev_append acc rest;
            Some pat
        | p :: rest -> go (p :: acc) rest
        | [] ->
            remaining := List.rev acc;
            None
      in
      go [] !remaining
    in
    let take_positional () =
      let rec go acc = function
        | (Asttypes.Nolabel, _, pat) :: rest ->
            remaining := List.rev_append acc rest;
            Some pat
        | ((Asttypes.Optional _, _, _) as p) :: rest -> go (p :: acc) rest
        | ((Asttypes.Labelled _, _, _) as p) :: rest -> go (p :: acc) rest
        | [] ->
            remaining := List.rev acc;
            None
      in
      go [] !remaining
    in
    List.iter
      (fun (lbl, v) ->
        let pat =
          match lbl with
          | Asttypes.Labelled l | Asttypes.Optional l -> take_labelled l
          | Asttypes.Nolabel -> take_positional ()
        in
        match pat with
        | Some pat -> (
            match pat_var pat with
            | Some x -> env := Smap.add x v !env
            | None ->
                List.iter (fun x -> env := Smap.add x Dyn !env) (Ast_scan.pattern_vars pat))
        | None -> ())
      args;
    (!remaining, !env)
  in
  let remaining, env = bind_params fn args in
  let positional_left =
    List.exists (function Asttypes.Nolabel, _, _ -> true | _ -> false) remaining
  in
  if positional_left then
    Fval { fn with fparams = remaining; fenv = env }
  else begin
    (* all positional parameters satisfied: bind leftover optionals to
       their defaults (best effort) and evaluate *)
    let env =
      List.fold_left
        (fun env (_, default, pat) ->
          match pat_var pat with
          | Some x ->
              let v =
                match default with Some d -> (try eval ctx env d with Out_of_fuel -> Dyn) | None -> Dyn
              in
              Smap.add x v env
          | None -> env)
        env remaining
    in
    match fn.fann with
    | Some bound -> Bval (iv_of_hi (instantiate_ann ctx env bound))
    | None ->
        if List.exists (String.equal fn.fkey) ctx.stack then Dyn
        else begin
          ctx.stack <- fn.fkey :: ctx.stack;
          let v =
            match fn.fbody.pexp_desc with
            | Pexp_function cases -> eval_cases ctx env cases
            | _ -> ( try eval ctx env fn.fbody with Out_of_fuel -> Dyn)
          in
          (match ctx.stack with _ :: rest -> ctx.stack <- rest | [] -> ());
          v
        end
  end

(* A width annotation may mention parameter names; substitute the actual
   argument intervals (hi for positive coefficients, lo for negative). *)
and instantiate_ann _ctx env bound =
  Tmap.fold
    (fun t c acc ->
      match t with
      | Param p -> (
          let arg =
            match Smap.find_opt p env with
            | Some (Ival iv) | Some (Bval iv) -> iv
            | Some (Inst name) -> iv_exact (f_term (Param name))
            | Some (Rcell r) -> r.cell
            | _ -> iv_top
          in
          let sub = if c >= 0 then arg.hi else arg.lo in
          match (acc, sub) with
          | Some f, Some s -> Some (f_add f (f_scale c s))
          | _ -> None)
      | _ -> Option.map (fun f -> f_add f (f_term ~coeff:c t)) acc)
    bound.terms (Some (f_const bound.const))
  |> function
  | Some f -> f
  | None -> f_term (Param "?")  (* unprovable: a Param term never compares *)

and audit_subscript ctx ~loc ~what ~len ~idx =
  let safe =
    iv_nonneg_lo idx
    && match (idx.hi, len.lo) with
       | Some ih, Some ll -> leq ih (f_addc ll (-1))
       | _ -> false
  in
  if safe then
    add_safe ctx ~loc
      (Printf.sprintf "%s: index %s proved within [0, %s)" what (interval_to_string idx)
         (match len.lo with Some f -> form_to_string f | None -> "?"))
  else
    let provably_oob =
      (match (idx.lo, len.hi) with Some il, Some lh -> leq lh il | _ -> false)
      || match idx.hi with Some ih -> leq ih (f_const (-1)) | None -> false
    in
    if provably_oob then
      add_finding ctx ~loc ~rule:rule_index
        (Printf.sprintf "%s: subscript %s provably out of bounds for length %s" what
           (interval_to_string idx) (interval_to_string len))

and audit_slice ctx ~loc ~unsafe ~src ~pos ~len =
  let key (loc : Location.t) =
    (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
  in
  if unsafe then ctx.unsafe_audited <- key loc :: ctx.unsafe_audited;
  let proved =
    iv_nonneg_lo pos && iv_nonneg_lo len
    && match ((iv_add pos len).hi, src.lo) with
       | Some endhi, Some srclo -> leq endhi srclo
       | _ -> false
  in
  if proved then
    add_safe ctx ~loc
      (Printf.sprintf "Bits.%ssub: slice pos=%s len=%s proved within length %s"
         (if unsafe then "unsafe_" else "")
         (interval_to_string pos) (interval_to_string len) (interval_to_string src))
  else if unsafe then
    add_finding ctx ~loc ~rule:rule_index
      (Printf.sprintf
         "Bits.unsafe_sub slice pos=%s len=%s not provably within source length %s; use \
          Bits.sub or tighten the intervals (a dipp-refine annotation on the inputs can help)"
         (interval_to_string pos) (interval_to_string len) (interval_to_string src))

(* Same obligation as audit_slice, for the flat codec's random-access field
   reads: [pos, pos+width) must land inside the source bitstring. *)
and audit_flat_read ctx ~loc ~unsafe ~src ~pos ~width =
  let key (loc : Location.t) =
    (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
  in
  if unsafe then ctx.unsafe_audited <- key loc :: ctx.unsafe_audited;
  let proved =
    iv_nonneg_lo pos && iv_nonneg_lo width
    && match ((iv_add pos width).hi, src.lo) with
       | Some endhi, Some srclo -> leq endhi srclo
       | _ -> false
  in
  if proved then
    add_safe ctx ~loc
      (Printf.sprintf "Bits_flat.%s: field pos=%s width=%s proved within length %s"
         (if unsafe then "unsafe_int" else "read_int")
         (interval_to_string pos) (interval_to_string width) (interval_to_string src))
  else if unsafe then
    add_finding ctx ~loc ~rule:rule_index
      (Printf.sprintf
         "Bits_flat.unsafe_int field pos=%s width=%s not provably within source length %s; \
          use Bits_flat.read_int or tighten the intervals (a dipp-refine annotation on the \
          inputs can help)"
         (interval_to_string pos) (interval_to_string width) (interval_to_string src))

and record_site ctx ~loc labels =
  if own_loc ctx loc then begin
    let line = loc.Location.loc_start.pos_lnum in
    let width =
      match ann_at ctx.annots ~line with
      | Some { kind = Width; bound } -> iv_of_hi bound
      | _ -> (
          match labels with
          | Barr { elem; _ } -> elem
          | Bval iv -> iv
          | _ -> iv_top)
    in
    ctx.sites <- (loc, width) :: ctx.sites;
    match ctx.declared with
    | None -> ()
    | Some env_form -> (
        match width.hi with
        | None ->
            let hint =
              match ctx.last_unresolved with
              | Some (l, path) -> Printf.sprintf " (last unresolved call: %s at line %d)" path l
              | None -> ""
            in
            add_finding ctx ~loc ~rule:rule_budget
              (Printf.sprintf
                 "cannot bound the label width of this record_prover phase%s; annotate the \
                  call site or the serializer with (* dipp-refine: width <= FORM *)"
                 hint)
        | Some h ->
            if not (leq h env_form) then
              add_finding ctx ~loc ~rule:rule_budget
                (Printf.sprintf
                   "inferred label width %s exceeds (or is not provably within) the declared \
                    envelope %s of the bounds registry row"
                   (interval_to_string width) (form_to_string env_form)))
  end

and apply_builtin ctx ~loc (m, f) args =
  let pos = List.filter_map (function Asttypes.Nolabel, v -> Some v | _ -> None) args in
  let lab name =
    List.find_map
      (function
        | (Asttypes.Labelled l | Asttypes.Optional l), v when String.equal l name -> Some v
        | _ -> None)
      args
  in
  let need n k = if List.length pos >= n then k () else Builtin { path = (m, f); bargs = args } in
  let arith op =
    need 2 (fun () ->
        let a = as_int (List.nth pos 0) and b = as_int (List.nth pos 1) in
        Ival (op a b))
  in
  match (m, f) with
  (* ---- integer operators ---- *)
  | "Stdlib", "+" -> arith iv_add
  | "Stdlib", "-" -> arith iv_sub
  | "Stdlib", "*" -> arith iv_mul
  | "Stdlib", "min" | "Int", "min" -> arith iv_min
  | "Stdlib", "max" | "Int", "max" -> arith iv_max
  | "Stdlib", "/" ->
      arith (fun a b ->
          match iv_known_const b with
          | Some k when k >= 1 && iv_nonneg_lo a -> { lo = Some f_zero; hi = a.hi }
          | _ -> iv_top)
  | "Stdlib", "mod" ->
      arith (fun a b ->
          match iv_known_const b with
          | Some k when k >= 1 && iv_nonneg_lo a -> { lo = Some f_zero; hi = Some (f_const (k - 1)) }
          | _ -> iv_top)
  | "Stdlib", "land" ->
      arith (fun a b ->
          if iv_nonneg_lo a && iv_nonneg_lo b then { lo = Some f_zero; hi = pick_min a.hi b.hi }
          else iv_top)
  | "Stdlib", "lor" | "Stdlib", "lxor" -> arith (fun _ _ -> iv_top)
  | "Stdlib", "lsr" | "Stdlib", "asr" ->
      arith (fun a _ -> if iv_nonneg_lo a then { lo = Some f_zero; hi = a.hi } else iv_top)
  | "Stdlib", "lsl" ->
      arith (fun a b ->
          match iv_known_const b with
          | Some k when k >= 0 && k <= 16 -> iv_scale (1 lsl k) a
          | _ -> iv_top)
  | "Stdlib", "abs" -> need 1 (fun () ->
      let a = as_int (List.nth pos 0) in
      if iv_nonneg_lo a then Ival a else Ival iv_top)
  | "Stdlib", "succ" -> need 1 (fun () -> Ival (iv_addc (as_int (List.nth pos 0)) 1))
  | "Stdlib", "pred" -> need 1 (fun () -> Ival (iv_addc (as_int (List.nth pos 0)) (-1)))
  | "Stdlib", "ref" ->
      need 1 (fun () ->
          let r = { cell = as_int (List.nth pos 0) } in
          ctx.cells <- Rc r :: ctx.cells;
          Rcell r)
  | "Stdlib", "!" -> need 1 (fun () ->
      match List.nth pos 0 with Rcell r -> Ival r.cell | _ -> Dyn)
  | "Stdlib", ":=" ->
      need 2 (fun () ->
          (match List.nth pos 0 with
          | Rcell r -> r.cell <- as_int (List.nth pos 1)
          | _ -> ());
          Dyn)
  | "Stdlib", "incr" ->
      need 1 (fun () ->
          (match List.nth pos 0 with Rcell r -> r.cell <- iv_addc r.cell 1 | _ -> ());
          Dyn)
  | "Stdlib", "decr" ->
      need 1 (fun () ->
          (match List.nth pos 0 with Rcell r -> r.cell <- iv_addc r.cell (-1) | _ -> ());
          Dyn)
  | "Stdlib", ("=" | "<>" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "&&" | "||" | "not") ->
      Dyn
  | "Stdlib", "@" ->
      need 2 (fun () ->
          match (List.nth pos 0, List.nth pos 1) with
          | Lvals a, Lvals b -> Lvals (a @ b)
          | a, b ->
              let count v =
                match v with
                | Lvals vs -> iv_const (List.length vs)
                | Llist { count; _ } -> count
                | _ -> iv_top
              in
              let elem v =
                match v with
                | Lvals vs -> List.fold_left value_join Dyn vs
                | Llist { elem; _ } -> elem
                | _ -> Dyn
              in
              Llist { count = iv_add (count a) (count b); elem = value_join (elem a) (elem b) })
  (* ---- Bits ---- *)
  | "Bits", "of_bool" -> need 1 (fun () -> Bval (iv_const 1))
  | "Bits", "of_int" -> (
      match (lab "width", pos) with
      | Some w, _ :: _ -> Bval (as_int w)
      | _ -> Builtin { path = (m, f); bargs = args })
  | "Bits", "of_string" -> need 1 (fun () ->
      match List.nth pos 0 with Sval iv -> Bval iv | _ -> Bval iv_top)
  | "Bits", "to_string" -> need 1 (fun () -> Sval (as_bits_len (List.nth pos 0)))
  | "Bits", "length" -> need 1 (fun () -> Ival (as_bits_len (List.nth pos 0)))
  | "Bits", "make" -> need 1 (fun () -> Bval (as_int (List.nth pos 0)))
  | "Bits", "init" -> need 2 (fun () ->
      ignore (apply ctx ~loc (List.nth pos 1) [ (Asttypes.Nolabel, Ival iv_nonneg) ]);
      Bval (as_int (List.nth pos 0)))
  | "Bits", "random" -> need 2 (fun () -> Bval (as_int (List.nth pos 1)))
  | "Bits", "append" ->
      need 2 (fun () ->
          Bval (iv_add (as_bits_len (List.nth pos 0)) (as_bits_len (List.nth pos 1))))
  | "Bits", "concat" ->
      need 1 (fun () ->
          match List.nth pos 0 with
          | Lvals vs ->
              Bval (List.fold_left (fun acc v -> iv_add acc (as_bits_len v)) (iv_const 0) vs)
          | Llist { count; elem } -> Bval (iv_mul count (as_bits_len elem))
          | _ -> Bval iv_top)
  | "Bits", "get" ->
      need 2 (fun () ->
          if ctx.audit_index then
            audit_subscript ctx ~loc ~what:"Bits.get"
              ~len:(as_bits_len (List.nth pos 0))
              ~idx:(as_int (List.nth pos 1));
          Dyn)
  | "Bits", ("sub" | "unsafe_sub") -> (
      match (pos, lab "pos", lab "len") with
      | [ src ], Some p, Some l ->
          let src = as_bits_len src and p = as_int p and l = as_int l in
          if ctx.audit_index || String.equal f "unsafe_sub" then
            audit_slice ctx ~loc ~unsafe:(String.equal f "unsafe_sub") ~src ~pos:p ~len:l;
          Bval l
      | _ -> Builtin { path = (m, f); bargs = args })
  | "Bits", "to_int" -> need 1 (fun () -> Ival iv_nonneg)
  | "Bits", "of_bytes" -> (
      match lab "len" with Some l -> Bval (as_int l) | None -> Bval iv_top)
  | "Writer", "create" -> need 1 (fun () ->
      let w = { acc = iv_const 0 } in
      ctx.cells <- Wc w :: ctx.cells;
      Wval w)
  | "Writer", "bool" ->
      need 2 (fun () ->
          (match List.nth pos 0 with Wval w -> w.acc <- iv_add w.acc (iv_const 1) | _ -> ());
          Dyn)
  | "Writer", "int" -> (
      match (pos, lab "width") with
      | wv :: _ :: _, Some width | [ wv ], Some width ->
          (* (w ~width v) or partially (w ~width) then v *)
          if List.length pos >= 2 then begin
            (match wv with Wval w -> w.acc <- iv_add w.acc (as_int width) | _ -> ());
            Dyn
          end
          else Builtin { path = (m, f); bargs = args }
      | _ -> Builtin { path = (m, f); bargs = args })
  | "Writer", "bits" ->
      need 2 (fun () ->
          (match List.nth pos 0 with
          | Wval w -> w.acc <- iv_add w.acc (as_bits_len (List.nth pos 1))
          | _ -> ());
          Dyn)
  | "Writer", "contents" ->
      need 1 (fun () -> match List.nth pos 0 with Wval w -> Bval w.acc | _ -> Dyn)
  | "Reader", "bits" -> (
      match lab "len" with Some l -> Bval (as_int l) | None -> Builtin { path = (m, f); bargs = args })
  | "Reader", "int" -> (
      match lab "width" with Some _ -> Ival iv_nonneg | None -> Builtin { path = (m, f); bargs = args })
  | "Reader", "remaining" -> need 1 (fun () -> Ival iv_nonneg)
  (* ---- Bits_flat (flat codec: Enc mirrors Writer, Dec mirrors Reader) ---- *)
  | "Enc", "create" -> need 1 (fun () ->
      let w = { acc = iv_const 0 } in
      ctx.cells <- Wc w :: ctx.cells;
      Wval w)
  | "Enc", "reset" ->
      need 1 (fun () ->
          (match List.nth pos 0 with Wval w -> w.acc <- iv_const 0 | _ -> ());
          Dyn)
  | "Enc", "bool" ->
      need 2 (fun () ->
          (match List.nth pos 0 with Wval w -> w.acc <- iv_add w.acc (iv_const 1) | _ -> ());
          Dyn)
  | "Enc", "int" -> (
      match (pos, lab "width") with
      | wv :: _ :: _, Some width | [ wv ], Some width ->
          (* (e ~width v) or partially (e ~width) then v *)
          if List.length pos >= 2 then begin
            (match wv with Wval w -> w.acc <- iv_add w.acc (as_int width) | _ -> ());
            Dyn
          end
          else Builtin { path = (m, f); bargs = args }
      | _ -> Builtin { path = (m, f); bargs = args })
  | "Enc", "bits" ->
      need 2 (fun () ->
          (match List.nth pos 0 with
          | Wval w -> w.acc <- iv_add w.acc (as_bits_len (List.nth pos 1))
          | _ -> ());
          Dyn)
  | "Enc", "length" ->
      need 1 (fun () -> match List.nth pos 0 with Wval w -> Ival w.acc | _ -> Ival iv_nonneg)
  | "Enc", "to_bits" ->
      need 1 (fun () -> match List.nth pos 0 with Wval w -> Bval w.acc | _ -> Dyn)
  | "Dec", "of_bits" -> need 1 (fun () -> Dyn)
  | "Dec", "bits" -> (
      match lab "len" with Some l -> Bval (as_int l) | None -> Builtin { path = (m, f); bargs = args })
  | "Dec", "int" -> (
      match lab "width" with Some _ -> Ival iv_nonneg | None -> Builtin { path = (m, f); bargs = args })
  | "Dec", "bool" -> need 1 (fun () -> Dyn)
  | "Dec", "remaining" -> need 1 (fun () -> Ival iv_nonneg)
  | "Bits_flat", ("read_int" | "unsafe_int") -> (
      match (pos, lab "pos", lab "width") with
      | [ src ], Some p, Some w ->
          let src = as_bits_len src and p = as_int p and w = as_int w in
          let unsafe = String.equal f "unsafe_int" in
          if ctx.audit_index || unsafe then
            audit_flat_read ctx ~loc ~unsafe ~src ~pos:p ~width:w;
          Ival iv_nonneg
      | _ -> Builtin { path = (m, f); bargs = args })
  (* ---- arrays ---- *)
  | "Array", "length" ->
      need 1 (fun () ->
          match List.nth pos 0 with
          | Barr { alen; _ } -> Ival alen
          | Aval { alen } -> Ival alen
          | _ -> Ival iv_nonneg)
  | "Array", "make" ->
      need 2 (fun () ->
          let n = as_int (List.nth pos 0) in
          match List.nth pos 1 with
          | Bval iv -> Barr { alen = n; elem = iv }
          | _ -> Aval { alen = n })
  | "Array", "init" ->
      need 2 (fun () ->
          let n = as_int (List.nth pos 0) in
          let idx = { lo = Some f_zero; hi = Option.map (fun f -> f_addc f (-1)) n.hi } in
          let elem = apply ctx ~loc (List.nth pos 1) [ (Asttypes.Nolabel, Ival idx) ] in
          match elem with
          | Bval iv -> Barr { alen = n; elem = iv }
          | _ -> Aval { alen = n })
  | "Array", ("map" | "mapi") ->
      need 2 (fun () ->
          let fv = List.nth pos 0 and av = List.nth pos 1 in
          let alen, elem_in =
            match av with
            | Barr { alen; elem } -> (alen, Bval elem)
            | Aval { alen } -> (alen, Dyn)
            | _ -> (iv_nonneg, Dyn)
          in
          let cb_args =
            if String.equal f "mapi" then
              [ (Asttypes.Nolabel, Ival iv_nonneg); (Asttypes.Nolabel, elem_in) ]
            else [ (Asttypes.Nolabel, elem_in) ]
          in
          match apply ctx ~loc fv cb_args with
          | Bval iv -> Barr { alen; elem = iv }
          | _ -> Aval { alen })
  | "Array", "append" ->
      need 2 (fun () ->
          match (List.nth pos 0, List.nth pos 1) with
          | Barr a, Barr b ->
              Barr { alen = iv_add a.alen b.alen; elem = iv_join a.elem b.elem }
          | Barr a, Aval b | Aval b, Barr a ->
              Barr { alen = iv_add a.alen b.alen; elem = a.elem }
          | Aval a, Aval b -> Aval { alen = iv_add a.alen b.alen }
          | _ -> Dyn)
  | "Array", "concat" -> need 1 (fun () -> Dyn)
  | "Array", "copy" -> need 1 (fun () -> List.nth pos 0)
  | "Array", "of_list" ->
      need 1 (fun () ->
          match List.nth pos 0 with
          | Lvals vs ->
              let n = iv_const (List.length vs) in
              if List.exists (function Bval _ -> true | _ -> false) vs then
                Barr
                  {
                    alen = n;
                    elem =
                      List.fold_left (fun acc v -> iv_join acc (as_bits_len v)) (iv_const 0) vs;
                  }
              else Aval { alen = n }
          | Llist { count; elem = Bval iv } -> Barr { alen = count; elem = iv }
          | Llist { count; _ } -> Aval { alen = count }
          | _ -> Dyn)
  | "Array", "to_list" ->
      need 1 (fun () ->
          match List.nth pos 0 with
          | Barr { alen; elem } -> Llist { count = alen; elem = Bval elem }
          | Aval { alen } -> Llist { count = alen; elem = Dyn }
          | _ -> Dyn)
  | "Array", ("get" | "unsafe_get") ->
      need 2 (fun () ->
          let av = List.nth pos 0 and idx = as_int (List.nth pos 1) in
          (if ctx.audit_index then
             match av with
             | Barr { alen; _ } | Aval { alen } ->
                 audit_subscript ctx ~loc ~what:"Array.get" ~len:alen ~idx
             | _ -> ());
          match av with Barr { elem; _ } -> Bval elem | _ -> Dyn)
  | "Array", ("set" | "unsafe_set") ->
      need 3 (fun () ->
          (if ctx.audit_index then
             match List.nth pos 0 with
             | Barr { alen; _ } | Aval { alen } ->
                 audit_subscript ctx ~loc ~what:"Array.set" ~len:alen
                   ~idx:(as_int (List.nth pos 1))
             | _ -> ());
          Dyn)
  | "Array", ("iter" | "iteri" | "for_all" | "exists") ->
      need 2 (fun () ->
          let fv = List.nth pos 0 in
          let elem_in =
            match List.nth pos 1 with Barr { elem; _ } -> Bval elem | _ -> Dyn
          in
          let cb_args =
            if String.equal f "iteri" then
              [ (Asttypes.Nolabel, Ival iv_nonneg); (Asttypes.Nolabel, elem_in) ]
            else [ (Asttypes.Nolabel, elem_in) ]
          in
          ignore (apply ctx ~loc fv cb_args);
          Dyn)
  | "Array", ("fold_left" | "fold_right") ->
      need 3 (fun () ->
          ignore (apply ctx ~loc (List.nth pos 0) [ (Asttypes.Nolabel, Dyn); (Asttypes.Nolabel, Dyn) ]);
          Dyn)
  (* ---- lists ---- *)
  | "List", "length" ->
      need 1 (fun () ->
          match List.nth pos 0 with
          | Lvals vs -> Ival (iv_const (List.length vs))
          | Llist { count; _ } -> Ival count
          | _ -> Ival iv_nonneg)
  | "List", "rev" -> need 1 (fun () ->
      match List.nth pos 0 with Lvals vs -> Lvals (List.rev vs) | v -> v)
  | "List", ("map" | "mapi" | "rev_map") ->
      need 2 (fun () ->
          let fv = List.nth pos 0 in
          let one v =
            let cb =
              if String.equal f "mapi" then
                [ (Asttypes.Nolabel, Ival iv_nonneg); (Asttypes.Nolabel, v) ]
              else [ (Asttypes.Nolabel, v) ]
            in
            apply ctx ~loc fv cb
          in
          match List.nth pos 1 with
          | Lvals vs -> Lvals (List.map one vs)
          | Llist { count; elem } -> Llist { count; elem = one elem }
          | _ -> Llist { count = iv_nonneg; elem = one Dyn })
  | "List", ("iter" | "iteri" | "for_all" | "exists") ->
      need 2 (fun () ->
          let fv = List.nth pos 0 in
          let one v =
            let cb =
              if String.equal f "iteri" then
                [ (Asttypes.Nolabel, Ival iv_nonneg); (Asttypes.Nolabel, v) ]
              else [ (Asttypes.Nolabel, v) ]
            in
            ignore (apply ctx ~loc fv cb)
          in
          (match List.nth pos 1 with
          | Lvals vs -> List.iter one vs
          | Llist { elem; _ } -> one elem
          | _ -> one Dyn);
          Dyn)
  | "List", ("filter" | "sort" | "stable_sort" | "sort_uniq") ->
      need 2 (fun () ->
          match List.nth pos 1 with
          | Lvals vs -> Llist { count = iv_of_hi (f_const (List.length vs)); elem = List.fold_left value_join Dyn vs }
          | Llist { count; elem } -> Llist { count = { lo = Some f_zero; hi = count.hi }; elem }
          | _ -> Dyn)
  | "List", "filter_map" ->
      need 2 (fun () ->
          let fv = List.nth pos 0 in
          let elem =
            match List.nth pos 1 with
            | Lvals vs -> List.fold_left (fun acc v -> value_join acc (apply ctx ~loc fv [ (Asttypes.Nolabel, v) ])) Dyn vs
            | Llist { elem; _ } -> apply ctx ~loc fv [ (Asttypes.Nolabel, elem) ]
            | _ -> Dyn
          in
          ignore elem;
          Dyn)
  | "List", ("fold_left" | "fold_right") ->
      need 3 (fun () ->
          ignore (apply ctx ~loc (List.nth pos 0) [ (Asttypes.Nolabel, Dyn); (Asttypes.Nolabel, Dyn) ]);
          Dyn)
  | "List", "init" ->
      need 2 (fun () ->
          let n = as_int (List.nth pos 0) in
          let elem = apply ctx ~loc (List.nth pos 1) [ (Asttypes.Nolabel, Ival iv_nonneg) ] in
          Llist { count = n; elem })
  (* ---- strings / bytes ---- *)
  | ("String" | "Bytes"), "length" ->
      need 1 (fun () ->
          match List.nth pos 0 with Sval iv -> Ival iv | _ -> Ival iv_nonneg)
  | ("String" | "Bytes"), "make" -> need 2 (fun () -> Sval (as_int (List.nth pos 0)))
  | ("String" | "Bytes"), "init" -> need 2 (fun () -> Sval (as_int (List.nth pos 0)))
  | "String", "sub" | "Bytes", "sub" ->
      need 3 (fun () -> Sval (as_int (List.nth pos 2)))
  | ("String" | "Bytes"), ("get" | "unsafe_get") ->
      need 2 (fun () ->
          (if ctx.audit_index then
             match List.nth pos 0 with
             | Sval len -> audit_subscript ctx ~loc ~what:(m ^ ".get") ~len ~idx:(as_int (List.nth pos 1))
             | _ -> ());
          Dyn)
  (* ---- Dip ---- *)
  | "Dip", "record_prover" ->
      need 2 (fun () ->
          record_site ctx ~loc (List.nth pos 1);
          Dyn)
  | "Dip", "record_verifier" -> need 2 (fun () -> Dyn)
  | "Dip", "all_accept" -> (
      match (lab "n", pos) with
      | Some n, fv :: _ ->
          let n = as_int n in
          let idx = { lo = Some f_zero; hi = Option.map (fun f -> f_addc f (-1)) n.hi } in
          let saved = ctx.audit_index in
          ctx.audit_index <- true;
          ignore (apply ctx ~loc fv [ (Asttypes.Nolabel, Ival idx) ]);
          ctx.audit_index <- saved;
          Dyn
      | _ -> Builtin { path = (m, f); bargs = args })
  | ("Option" | "Result" | "Seq" | "Hashtbl" | "Queue" | "Stack" | "Buffer" | "Format"
    | "Printf" | "Fun" | "Float" | "Char" | "Sys" | "Filename" | "Int" | "Stdlib" | "Dip"
    | "Bits" | "Writer" | "Reader" | "Array" | "List" | "String" | "Bytes"), _ ->
      Dyn
  | _ -> Dyn

(* Path-sensitivity-lite: refine integer intervals from a comparison
   guard for the then-branch. *)
and refine_env ctx env (cond : Parsetree.expression) =
  match cond.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "&&"; _ }; _ },
        [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] ) ->
      refine_env ctx (refine_env ctx env a) b
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("<" | "<=" | ">" | ">=") as op); _ }; _ },
        [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] ) -> (
      let refine_var x ~upper ~strict other =
        match Smap.find_opt x env with
        | Some (Ival xi) ->
            let o = as_int (try eval ctx env other with Out_of_fuel -> Dyn) in
            let xi' =
              if upper then
                (* x < other  /  x <= other *)
                let bound = if strict then Option.map (fun f -> f_addc f (-1)) o.hi else o.hi in
                { xi with hi = pick_min xi.hi bound }
              else
                let bound = if strict then Option.map (fun f -> f_addc f 1) o.lo else o.lo in
                { xi with lo = pick_max xi.lo bound }
            in
            Smap.add x (Ival xi') env
        | _ -> env
      in
      match (a.pexp_desc, b.pexp_desc) with
      | Pexp_ident { txt = Longident.Lident x; _ }, _ -> (
          match op with
          | "<" -> refine_var x ~upper:true ~strict:true b
          | "<=" -> refine_var x ~upper:true ~strict:false b
          | ">" -> refine_var x ~upper:false ~strict:true b
          | ">=" -> refine_var x ~upper:false ~strict:false b
          | _ -> env)
      | _, Pexp_ident { txt = Longident.Lident x; _ } -> (
          match op with
          | "<" -> refine_var x ~upper:false ~strict:true a
          | "<=" -> refine_var x ~upper:false ~strict:false a
          | ">" -> refine_var x ~upper:true ~strict:true a
          | ">=" -> refine_var x ~upper:true ~strict:false a
          | _ -> env)
      | _ -> env)
  | _ -> env

(* ---- drivers --------------------------------------------------------- *)

type envelope = form

let form_leq = leq

let envelope_of_shape (s : Dipp_protocols.Bounds.shape) =
  match s with
  | Dipp_protocols.Bounds.Loglog { mult; add } -> f_addc (f_term ~coeff:mult Loglog) add
  | Dipp_protocols.Bounds.Loglog_delta { mult; dmult; add } ->
      f_addc (f_add (f_term ~coeff:mult Loglog) (f_term ~coeff:dmult Logdelta)) add
  | Dipp_protocols.Bounds.Log { mult; add } -> f_addc (f_term ~coeff:mult Log) add

let envelope ?(loglog = 0) ?(log = 0) ?(logdelta = 0) ~add () =
  f_addc
    (f_add (f_term ~coeff:loglog Loglog) (f_add (f_term ~coeff:log Log) (f_term ~coeff:logdelta Logdelta)))
    add

let pp_envelope = pp_form

type result = {
  findings : Report.finding list;
  safe : safe list;
  label_lo : form option;
  label_hi : form option;
}

(* Collect every [Bits.unsafe_sub] / [Bits_flat.unsafe_int] identifier
   occurrence so call sites the evaluator never reached still fail the
   gate. *)
let unsafe_sub_sites structure =
  let acc = ref [] in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        match Ast_scan.last_two txt with
        | Some ("Bits", "unsafe_sub") -> acc := ("Bits.unsafe_sub", "Bits.sub", loc) :: !acc
        | Some ("Bits_flat", "unsafe_int") ->
            acc := ("Bits_flat.unsafe_int", "Bits_flat.read_int", loc) :: !acc
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let iter = { Ast_iterator.default_iterator with expr } in
  iter.structure iter structure;
  !acc

let analyze ~program ~annots ?declared ~filename structure =
  let ctx =
    {
      filename;
      modname = Typed_scan.module_name filename;
      annots;
      program;
      declared;
      fuel = 400_000;
      stack = [];
      audit_index = false;
      findings = [];
      safes = [];
      sites = [];
      cells = [];
      last_unresolved = None;
      unsafe_audited = [];
      module_envs = Hashtbl.create 8;
      sibling_annots = Hashtbl.create 8;
      modules_in_progress = [ Typed_scan.module_name filename ];
    }
  in
  (try
     let env = eval_structure ctx structure in
     Hashtbl.replace ctx.module_envs ctx.modname env;
     (* drive [run] (budget + index audits) *)
     (match Smap.find_opt "run" env with
     | Some (Fval fn) ->
         let args =
           List.filter_map
             (function
               | Asttypes.Nolabel, _, pat ->
                   Some
                     ( Asttypes.Nolabel,
                       match pat_var pat with Some x -> Inst x | None -> Dyn )
               | _ -> None)
             fn.fparams
         in
         ignore (try apply ctx ~loc:Location.none (Fval fn) args with Out_of_fuel -> Dyn)
     | _ -> ());
     (* drive every decision-named top-level function with the index audit on *)
     Smap.iter
       (fun name v ->
         match v with
         | Fval fn when Flow.is_decision_name name ->
             let args =
               List.filter_map
                 (function
                   | Asttypes.Nolabel, _, pat ->
                   Some
                     ( Asttypes.Nolabel,
                       match pat_var pat with Some x -> Inst x | None -> Dyn )
                   | _ -> None)
                 fn.fparams
             in
             let saved = ctx.audit_index in
             ctx.audit_index <- true;
             ignore (try apply ctx ~loc:Location.none (Fval fn) args with Out_of_fuel -> Dyn);
             ctx.audit_index <- saved
         | _ -> ())
       env
   with _ -> ());
  (* gate: unsafe_sub / unsafe_int sites the evaluator never audited *)
  List.iter
    (fun ((what : string), (instead : string), (loc : Location.t)) ->
      let key = (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol) in
      if not (List.exists (fun k -> k = key) ctx.unsafe_audited) then
        add_finding ctx ~loc ~rule:rule_index
          (Printf.sprintf
             "%s call site not reached by the refine pass, so its range cannot be verified; \
              use %s here"
             what instead))
    (unsafe_sub_sites structure);
  let label_lo, label_hi =
    List.fold_left
      (fun (lo, hi) (_, iv) ->
        let lo = match (lo, iv.lo) with Some a, Some b -> pick_max (Some a) (Some b) | x, None -> x | None, y -> y in
        let hi = match (hi, iv.hi) with Some a, Some b -> Some (f_cmax a b) | _, None | None, _ -> None in
        (lo, hi))
      (None, (match ctx.sites with [] -> None | _ -> Some f_zero))
      ctx.sites
  in
  (* a closure audited once per call site can prove the same subscript
     several times; report each site once *)
  let safe =
    List.fold_left
      (fun acc (s : safe) ->
        if
          List.exists
            (fun (t : safe) ->
              t.sline = s.sline && t.scol = s.scol && String.equal t.sdesc s.sdesc)
            acc
        then acc
        else s :: acc)
      []
      (List.rev ctx.safes)
    |> List.rev
  in
  { findings = List.rev ctx.findings; safe; label_lo; label_hi }
