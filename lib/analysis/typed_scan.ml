(* A lightweight whole-program view for the flow analysis: every top-level
   function binding of every module, indexed as "Module.name", with its
   parameter names and body.  This is the layer interprocedural rules
   (flow-locality) resolve qualified calls against; single-file entry
   points run with an empty program and degrade gracefully. *)

type entry = {
  params : string list;
  body : Parsetree.expression;
  file : string;
  line : int;
  orig : Parsetree.expression;
}

type program = (string, entry) Hashtbl.t

let module_name path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Peels the parameter chain of a binding; [None] for plain values.  A
   [function] body counts as one more (anonymous) parameter level. *)
let peel_params expr =
  let rec go acc (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (_, _, pat, body) -> go (Ast_scan.pattern_vars pat @ acc) body
    | Pexp_newtype (_, body) -> go acc body
    | Pexp_function _ -> Some (acc, e)
    | _ -> ( match acc with [] -> None | _ :: _ -> Some (acc, e))
  in
  go [] expr

let add_structure ~file prog ~modname structure =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> (
                  match peel_params vb.pvb_expr with
                  | Some (params, body) ->
                      Hashtbl.replace prog (modname ^ "." ^ txt)
                        {
                          params;
                          body;
                          file;
                          line = vb.pvb_pat.ppat_loc.loc_start.pos_lnum;
                          orig = vb.pvb_expr;
                        }
                  | None -> ())
              | _ -> ())
            vbs
      | _ -> ())
    structure

let of_structure ~modname structure =
  let prog = Hashtbl.create 64 in
  add_structure ~file:"" prog ~modname structure;
  prog

let lookup prog ~modname ~name = Hashtbl.find_opt prog (modname ^ "." ^ name)

(* Files that fail to parse are skipped: the parse-error rule reports
   them separately. *)
let load_files files =
  let prog = Hashtbl.create 64 in
  List.iter
    (fun path ->
      match Ast_scan.parse_file path with
      | structure -> add_structure ~file:path prog ~modname:(module_name path) structure
      | exception _ -> ())
    files;
  prog

let load_tree root = load_files (if Sys.file_exists root then Ast_scan.ml_files [ root ] else [])
