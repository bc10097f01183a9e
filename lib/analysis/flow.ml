(* The DIP-model locality analysis (rules flow-locality and
   locality-traversal): an interprocedural taint analysis over the
   parsetree that tracks where values inside a decision function came
   from.  The lattice orders provenance by how far it reaches beyond the
   deciding node's legal view:

       Local < Own_coin < Neighbor_label < Graph_global

   [Local] is node-local arithmetic (parameters, constants); [Own_coin]
   flowed out of a coin/randomness store; [Neighbor_label] flowed out of
   a label store addressed by the node or a bound neighbor; and
   [Graph_global] is outer-scope state that never passed through the
   node's view.  Two sinks fire inside a decision function: a
   [Graph_global] value reaching a container subscript (flow-locality) —
   including a non-local node id parked in a local slot and read back
   through it — and a qualified reference to the whole-graph
   enumerations Graph.edges / fold_edges / iter_edges
   (locality-traversal).

   Interprocedural propagation: every let-bound function gets a summary
   (result taint + latent findings); calling a summarized function joins
   its base taint into the result and replays its latent findings at the
   definition site.  Qualified calls resolve through the whole-program
   index (Typed_scan); cross-module summaries contribute base taint
   only, capped at Neighbor_label — a foreign module's own top-level
   state is not this decision function's outer scope. *)

module StrMap = Map.Make (String)
module StrSet = Set.Make (String)

let rule_flow = "flow-locality"
let rule_traversal = "locality-traversal"

type taint = Local | Own_coin | Neighbor_label | Graph_global

let rank = function Local -> 0 | Own_coin -> 1 | Neighbor_label -> 2 | Graph_global -> 3
let join a b = if rank a >= rank b then a else b
let joins ts = List.fold_left join Local ts
let is_global = function Graph_global -> true | Local | Own_coin | Neighbor_label -> false

let taint_name = function
  | Local -> "Local"
  | Own_coin -> "OwnCoin"
  | Neighbor_label -> "NeighborLabel"
  | Graph_global -> "GraphGlobal"

type store = { mutable content : taint }
type summary = { base : taint; flags : Report.finding list }
type binding = Val of taint | Store of store | Fn of summary

type ctx = {
  prog : Typed_scan.program;
  stores : (Location.t, store) Hashtbl.t;  (* binding site -> tracked cell *)
  xsums : (string, taint) Hashtbl.t;  (* memoized cross-module bases *)
}

type emit = Report.finding -> unit

let silent : emit = fun _ -> ()

(* ---- name classification --------------------------------------------- *)

let is_decision_name n =
  String.starts_with ~prefix:"decide" n
  || String.starts_with ~prefix:"verify" n
  || String.ends_with ~suffix:"_check" n

(* Global edge enumeration: the whole-graph escape hatches of the Graph
   API.  Qualified uses only — an unqualified [edges] is a local binding. *)
let is_global_traversal lid =
  match Ast_scan.last_two lid with
  | Some ("Graph", ("edges" | "fold_edges" | "iter_edges")) -> true
  | Some _ | None -> false

let flag_traversal (emit : emit) ~loc lid =
  if is_global_traversal lid then
    emit
      (Report.finding ~loc ~rule:rule_traversal
         (Printf.sprintf
            "global edge traversal `%s` inside a decision function; a node may only inspect its \
             neighborhood (Graph.neighbors/degree/mem_edge)"
            (Ast_scan.ident_path lid)))

let word_operators =
  StrSet.of_list [ "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr"; "or"; "not" ]

let allowed_free = StrSet.of_list [ "min"; "max"; "abs"; "succ"; "pred"; "fst"; "snd"; "ignore" ]

let is_operator_name x =
  x <> ""
  && (StrSet.mem x word_operators
     || match x.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> false | _ -> true)

let is_pure_free x = is_operator_name x || StrSet.mem x allowed_free

(* The container firewall: a free identifier used *as a container* (or as
   an argument handed to a summarized call) is assumed to be a legal part
   of the node's view — a label array indexed here, a coin store, a graph
   handle passed to the neighbor API.  Only values read *out* of it keep
   flowing through the lattice.  Without this assumption every shipped
   decision function would be noise; with it, the rule still catches
   non-local values *entering* a subscript. *)
let firewall_name x =
  let lx = String.lowercase_ascii x in
  let has sub = Option.is_some (Ast_scan.find_sub lx sub) in
  if has "coin" || has "rng" || has "rand" then Own_coin
  else Neighbor_label

(* ---- container-access classification ---------------------------------- *)

type access =
  | Read of Parsetree.expression * Parsetree.expression
  | Write of Parsetree.expression * Parsetree.expression * Parsetree.expression

let classify_access lid args =
  let plain = List.map snd args in
  match (Ast_scan.last_two lid, plain) with
  | Some (("Array" | "Bytes" | "String"), ("get" | "unsafe_get")), [ c; i ] -> Some (Read (c, i))
  | Some ("Hashtbl", ("find" | "find_opt" | "mem")), [ c; k ] -> Some (Read (c, k))
  | Some (("Array" | "Bytes"), ("set" | "unsafe_set")), [ c; i; x ] -> Some (Write (c, i, x))
  | Some ("Hashtbl", ("replace" | "add")), [ c; k; x ] -> Some (Write (c, k, x))
  | (Some _ | None), _ -> None

let store_maker lid plain =
  (* Shapes whose result we track as a local mutable slot, with the
     initial content taint each implies.  [`Elements e] defers to the
     element taint of a source container; [`Value e] to a plain value;
     [`Lambda (f, src)] to the result of the initializer over [src]'s
     elements (or over [Local] for [None]). *)
  match (Ast_scan.last_two lid, plain) with
  | Some ("Array", "make"), [ _; x ] -> Some (`Value x)
  | Some ("Array", "init"), [ _; f ] -> Some (`Lambda (f, None))
  | Some ("Array", ("copy" | "sub")), c :: _ -> Some (`Elements c)
  | Some ("Array", "append"), [ a; b ] -> Some (`Elements2 (a, b))
  | Some ("Array", "concat"), [ l ] -> Some (`Elements l)
  | Some ("Array", ("map" | "mapi")), [ f; c ] -> Some (`Lambda (f, Some c))
  | Some ("Array", "of_list"), [ l ] -> Some (`Elements l)
  | Some ("Bytes", ("create" | "make")), _ -> Some `Fresh
  | Some ("Hashtbl", "create"), _ -> Some `Fresh
  | Some ("Hashtbl", "copy"), [ c ] -> Some (`Elements c)
  | (Some _ | None), _ -> None

(* ---- the evaluator ---------------------------------------------------- *)

let resolve env x = StrMap.find_opt x env
let bind_all names b env = List.fold_left (fun acc x -> StrMap.add x b acc) env names

let rec eval ctx (emit : emit) env (e : Parsetree.expression) : taint =
  match e.pexp_desc with
  | Pexp_constant _ -> Local
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> Local
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> eval ctx emit env a
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match resolve env x with
      | Some (Val t) -> t
      | Some (Store s) -> s.content
      | Some (Fn sum) ->
          (* a helper that escapes as a value may be called anywhere *)
          List.iter emit sum.flags;
          sum.base
      | None -> if is_pure_free x then Local else Graph_global)
  | Pexp_ident { txt; loc } ->
      flag_traversal emit ~loc txt;
      Local
  | Pexp_apply (f, args) -> eval_apply ctx emit env e f args
  | Pexp_let (rf, vbs, body) ->
      let env' = eval_let ctx emit env rf vbs in
      eval ctx emit env' body
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> walk_lambda ctx emit env Local e
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let st = eval ctx emit env scrut in
      eval_cases ctx emit env st cases
  | Pexp_ifthenelse (c, t, f) ->
      ignore (eval ctx emit env c);
      let tt = eval ctx emit env t in
      let ft = match f with Some f -> eval ctx emit env f | None -> Local in
      join tt ft
  | Pexp_sequence (a, b) ->
      ignore (eval ctx emit env a);
      eval ctx emit env b
  | Pexp_tuple es | Pexp_array es -> joins (List.map (eval ctx emit env) es)
  | Pexp_field (b, _) -> eval ctx emit env b
  | Pexp_setfield (b, _, x) ->
      ignore (eval ctx emit env b);
      ignore (eval ctx emit env x);
      Local
  | Pexp_record (fields, base) ->
      let ft = joins (List.map (fun (_, x) -> eval ctx emit env x) fields) in
      join ft (match base with Some b -> eval ctx emit env b | None -> Local)
  | Pexp_while (c, b) ->
      ignore (eval ctx emit env c);
      ignore (eval ctx emit env b);
      Local
  | Pexp_for (pat, lo, hi, _, body) ->
      ignore (eval ctx emit env lo);
      ignore (eval ctx emit env hi);
      let env' = bind_all (Ast_scan.pattern_vars pat) (Val Local) env in
      ignore (eval ctx emit env' body);
      Local
  | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) | Pexp_assert a | Pexp_lazy a ->
      eval ctx emit env a
  | Pexp_open (_, a) | Pexp_letexception (_, a) -> eval ctx emit env a
  | _ -> eval_children ctx emit env e

(* Fallback for constructs without a dedicated rule: evaluate every child
   expression (so accesses inside them are still audited) and stay Local. *)
and eval_children ctx emit env e =
  let it =
    { Ast_iterator.default_iterator with expr = (fun _ e' -> ignore (eval ctx emit env e')) }
  in
  Ast_iterator.default_iterator.expr it e;
  Local

and eval_cases ctx emit env scrut_taint cases =
  List.fold_left
    (fun acc (c : Parsetree.case) ->
      let env' = bind_all (Ast_scan.pattern_vars c.pc_lhs) (Val scrut_taint) env in
      Option.iter (fun g -> ignore (eval ctx emit env' g)) c.pc_guard;
      join acc (eval ctx emit env' c.pc_rhs))
    Local cases

(* A lambda in evaluation position: parameters carry [ptaint] (Local for
   a bare lambda, the source container's element taint when the lambda is
   an iteration callback). *)
and walk_lambda ctx emit env ptaint (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (fun d -> ignore (eval ctx emit env d)) default;
      let env' = bind_all (Ast_scan.pattern_vars pat) (Val ptaint) env in
      walk_lambda ctx emit env' ptaint body
  | Pexp_newtype (_, body) -> walk_lambda ctx emit env ptaint body
  | Pexp_function cases -> eval_cases ctx emit env ptaint cases
  | _ -> eval ctx emit env e

(* What comes out of a container when it is read.  Free identifiers and
   foreign state pass the firewall; a tracked local store yields whatever
   was stored into it — the laundering channel. *)
and element_taint ctx emit env (c : Parsetree.expression) =
  match c.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match resolve env x with
      | Some (Store s) -> s.content
      | Some (Val t) -> if is_global t then Graph_global else join t Neighbor_label
      | Some (Fn sum) -> join sum.base Neighbor_label
      | None -> firewall_name x)
  | Pexp_field (b, _) ->
      ignore (eval ctx emit env b);
      Neighbor_label
  | _ ->
      let t = eval ctx emit env c in
      if is_global t then Graph_global else join t Neighbor_label

(* An argument handed to a summarized/qualified call: free identifiers
   pass the firewall; literal lambdas run with their parameters bound to
   the co-arguments' element taint (iteration callbacks). *)
and eval_arg ctx emit env co_element (a : Parsetree.expression) =
  match a.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } when not (StrMap.mem x env) ->
      if is_pure_free x then Local else firewall_name x
  | Pexp_fun _ | Pexp_function _ -> walk_lambda ctx emit env co_element a
  | _ -> eval ctx emit env a

and eval_args ctx emit env args =
  let lambda (a : Parsetree.expression) =
    match a.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false
  in
  let co_element =
    joins
      (List.filter_map
         (fun (_, a) -> if lambda a then None else Some (element_taint ctx silent env a))
         args)
  in
  joins (List.map (fun (_, a) -> eval_arg ctx emit env co_element a) args)

and eval_apply ctx emit env e f args =
  match f.Parsetree.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match classify_access txt args with
      | Some (Read (c, i)) ->
          flag_if_global ctx emit env ~loc:e.Parsetree.pexp_loc i;
          element_taint ctx emit env c
      | Some (Write (c, i, x)) ->
          flag_if_global ctx emit env ~loc:e.Parsetree.pexp_loc i;
          let xt = eval ctx emit env x in
          store_into env c xt;
          Local
      | None -> (
          match txt with
          | Longident.Lident ":=" -> (
              match args with
              | [ (_, dst); (_, src) ] ->
                  let xt = eval ctx emit env src in
                  store_into env dst xt;
                  Local
              | _ -> eval_args ctx emit env args)
          | Longident.Lident x when is_pure_free x ->
              joins (List.map (fun (_, a) -> eval ctx emit env a) args)
          | Longident.Lident x -> (
              match resolve env x with
              | Some (Fn sum) ->
                  List.iter emit sum.flags;
                  join sum.base (eval_args ctx emit env args)
              | Some (Val t) -> join t (joins (List.map (fun (_, a) -> eval ctx emit env a) args))
              | Some (Store s) ->
                  join s.content (joins (List.map (fun (_, a) -> eval ctx emit env a) args))
              | None ->
                  (* a free function applied: its result never passed
                     through the node's view, and we cannot see inside *)
                  List.iter (fun (_, a) -> ignore (eval ctx emit env a)) args;
                  Graph_global)
          | _ ->
              flag_traversal emit ~loc:f.pexp_loc txt;
              let base = qualified_base ctx txt in
              join base (eval_args ctx emit env args)))
  | _ -> join (eval ctx emit env f) (eval_args ctx emit env args)

and flag_if_global ctx emit env ~loc i =
  let it = eval ctx emit env i in
  if is_global it then
    emit
      (Report.finding ~loc ~rule:rule_flow
         (Printf.sprintf
            "container subscript is %s-tainted: a value that never passed through the node's \
             own view (own coins, own labels, neighbors' labels) flows into this index; \
             decisions may only address label/coin stores by the deciding node or a bound \
             neighbor"
            (taint_name it)))

and store_into env (dst : Parsetree.expression) xt =
  match dst.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match resolve env x with
      | Some (Store s) -> s.content <- join s.content xt
      | Some (Val _ | Fn _) | None -> ())
  | _ -> ()

and eval_let ctx emit env rf vbs =
  let pre_bound =
    match rf with
    | Asttypes.Nonrecursive -> env
    | Asttypes.Recursive ->
        List.fold_left
          (fun acc (vb : Parsetree.value_binding) ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> (
                match Typed_scan.peel_params vb.pvb_expr with
                | Some _ -> StrMap.add txt (Fn { base = Local; flags = [] }) acc
                | None -> StrMap.add txt (Val Local) acc)
            | _ -> acc)
          env vbs
  in
  List.fold_left
    (fun acc (vb : Parsetree.value_binding) -> classify_binding ctx emit pre_bound acc vb)
    env vbs

and classify_binding ctx emit env_rhs env_acc (vb : Parsetree.value_binding) =
  let var_name (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
    | _ -> None
  in
  match var_name vb.pvb_pat with
  | Some name -> (
      match tracked_store ctx emit env_rhs vb with
      | Some s -> StrMap.add name (Store s) env_acc
      | None -> (
          match vb.pvb_expr.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } when
              (match resolve env_rhs x with Some (Store _) -> true | _ -> false) -> (
              match resolve env_rhs x with
              | Some (Store s) -> StrMap.add name (Store s) env_acc
              | _ -> env_acc)
          | _ -> (
              match Typed_scan.peel_params vb.pvb_expr with
              | Some (params, body) ->
                  let sum = summarize ctx env_rhs ~self:name params body in
                  StrMap.add name (Fn sum) env_acc
              | None -> StrMap.add name (Val (eval ctx emit env_rhs vb.pvb_expr)) env_acc)))
  | None ->
      let t = eval ctx emit env_rhs vb.pvb_expr in
      bind_all (Ast_scan.pattern_vars vb.pvb_pat) (Val t) env_acc

(* A store cell is keyed by its binding site so that the two passes over a
   decision body (populate, then report) share contents — writes seen on
   the first pass are visible to reads that precede them textually. *)
and tracked_store ctx emit env (vb : Parsetree.value_binding) =
  let cell init =
    let loc = vb.pvb_pat.ppat_loc in
    match Hashtbl.find_opt ctx.stores loc with
    | Some s ->
        s.content <- join s.content init;
        Some s
    | None ->
        let s = { content = init } in
        Hashtbl.replace ctx.stores loc s;
        Some s
  in
  match vb.pvb_expr.pexp_desc with
  | Pexp_array elems -> cell (joins (List.map (eval ctx emit env) elems))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "ref"; _ }; _ }, [ (_, x) ])
    ->
      cell (eval ctx emit env x)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      match store_maker txt (List.map snd args) with
      | Some `Fresh -> cell Local
      | Some (`Value x) -> cell (eval ctx emit env x)
      | Some (`Elements c) -> cell (element_taint ctx emit env c)
      | Some (`Elements2 (a, b)) ->
          cell (join (element_taint ctx emit env a) (element_taint ctx emit env b))
      | Some (`Lambda (f, src)) ->
          let ptaint =
            match src with Some c -> element_taint ctx emit env c | None -> Local
          in
          cell (walk_lambda ctx emit env ptaint f)
      | None -> None)
  | _ -> None

(* ---- summaries --------------------------------------------------------- *)

and summarize ctx env ~self params body =
  let flags = ref [] in
  let collect f = flags := f :: !flags in
  let env0 =
    StrMap.add self (Fn { base = Local; flags = [] }) (bind_all params (Val Local) env)
  in
  ignore (walk_lambda ctx silent env0 Local body);
  let base = walk_lambda ctx collect env0 Local body in
  { base; flags = List.sort_uniq Report.compare !flags }

(* Cross-module: base taint only, capped at Neighbor_label (a foreign
   module's free top-levels are its own state, not this function's outer
   scope), memoized with a Local placeholder as the recursion guard. *)
and qualified_base ctx txt =
  match Ast_scan.last_two txt with
  | Some (m, f) -> (
      let key = m ^ "." ^ f in
      match Hashtbl.find_opt ctx.xsums key with
      | Some t -> t
      | None -> (
          Hashtbl.replace ctx.xsums key Local;
          match Typed_scan.lookup ctx.prog ~modname:m ~name:f with
          | Some entry ->
              let sum = summarize ctx StrMap.empty ~self:f entry.params entry.body in
              let capped = if is_global sum.base then Neighbor_label else sum.base in
              Hashtbl.replace ctx.xsums key capped;
              capped
          | None -> Local))
  | None -> Local

(* ---- the decision-function driver -------------------------------------- *)

let run_decision ctx findings env ?self params body =
  let env0 =
    let e = bind_all params (Val Local) env in
    match self with Some name -> StrMap.add name (Fn { base = Local; flags = [] }) e | None -> e
  in
  ignore (walk_lambda ctx silent env0 Local body);
  let emit f = findings := f :: !findings in
  ignore (walk_lambda ctx emit env0 Local body)

let is_all_accept lid =
  match lid with
  | Longident.Lident "all_accept" -> true
  | _ -> ( match Ast_scan.last_two lid with Some (_, "all_accept") -> true | _ -> false)

(* The outer (non-decision) walk: threads function summaries through the
   nesting structure, fires the checker at every decision entry point —
   a binding named like a decision function, or a literal lambda handed
   to [Dip.all_accept] — and never reports anything on its own. *)
let rec outer_expr ctx findings env (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_let (rf, vbs, body) ->
      let env' = outer_bindings ctx findings env rf vbs in
      outer_expr ctx findings env' body
  | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as fh), args) when is_all_accept txt
    ->
      outer_expr ctx findings env fh;
      List.iter
        (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> (
              match Typed_scan.peel_params a with
              | Some (params, fbody) -> run_decision ctx findings env params fbody
              | None -> ())
          | _ -> outer_expr ctx findings env a)
        args
  | _ ->
      let it =
        { Ast_iterator.default_iterator with expr = (fun _ e' -> outer_expr ctx findings env e') }
      in
      Ast_iterator.default_iterator.expr it e

and outer_bindings ctx findings env rf vbs =
  let env_rhs =
    match rf with
    | Asttypes.Nonrecursive -> env
    | Asttypes.Recursive ->
        List.fold_left
          (fun acc (vb : Parsetree.value_binding) ->
            match (vb.pvb_pat.ppat_desc, Typed_scan.peel_params vb.pvb_expr) with
            | Ppat_var { txt; _ }, Some _ -> StrMap.add txt (Fn { base = Local; flags = [] }) acc
            | _, _ -> acc)
          env vbs
  in
  List.fold_left
    (fun acc (vb : Parsetree.value_binding) ->
      match (vb.pvb_pat.ppat_desc, Typed_scan.peel_params vb.pvb_expr) with
      | Ppat_var { txt = name; _ }, Some (params, fbody) ->
          let sum = summarize ctx env_rhs ~self:name params fbody in
          if is_decision_name name then
            run_decision ctx findings env_rhs ~self:name params fbody;
          outer_expr ctx findings env_rhs vb.pvb_expr;
          StrMap.add name (Fn sum) acc
      | _, _ ->
          outer_expr ctx findings env_rhs vb.pvb_expr;
          acc)
    env vbs

let rec outer_structure ctx findings env (structure : Parsetree.structure) =
  List.fold_left
    (fun env (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (rf, vbs) -> outer_bindings ctx findings env rf vbs
      | Pstr_eval (e, _) ->
          outer_expr ctx findings env e;
          env
      | Pstr_module mb ->
          outer_module ctx findings env mb.pmb_expr;
          env
      | Pstr_recmodule mbs ->
          List.iter (fun (mb : Parsetree.module_binding) -> outer_module ctx findings env mb.pmb_expr) mbs;
          env
      | _ -> env)
    env structure

and outer_module ctx findings env (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure items -> ignore (outer_structure ctx findings env items)
  | Pmod_constraint (m, _) | Pmod_functor (_, m) -> outer_module ctx findings env m
  | _ -> ()

let check ~program structure =
  let ctx = { prog = program; stores = Hashtbl.create 64; xsums = Hashtbl.create 64 } in
  let findings = ref [] in
  ignore (outer_structure ctx findings StrMap.empty structure);
  List.sort_uniq Report.compare !findings
