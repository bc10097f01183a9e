(* The one loader: each file is read (when it comes from disk) and parsed
   once, and every pass reads the structure, the text and the binding
   index from the program.  The index holds every top-level function
   binding of every module, as "Module.name" and per file, with its
   parameter names and body; the interprocedural rules resolve qualified
   calls against it. *)

type entry = { params : string list; body : Parsetree.expression; file : string }

type file = { path : string; text : string; parsed : (Parsetree.structure, exn) result }

type program = {
  files : file list;
  by_path : (string, file) Hashtbl.t;
  index : (string, entry) Hashtbl.t;  (* "Module.name" *)
  own : (string * string, entry) Hashtbl.t;  (* (path, name) *)
}

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

(* The compiler's own parser, so anything that builds also lints and
   locations match the compiler's diagnostics. *)
let parse ~filename text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf filename;
  Parse.implementation lexbuf

let add_structure prog ~path structure =
  let modname = module_name path in
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
                      let entry = { params; body; file = path } in
                      Hashtbl.replace prog.index (modname ^ "." ^ txt) entry;
                      Hashtbl.replace prog.own (path, txt) entry
                  | None -> ())
              | _ -> ())
            vbs
      | _ -> ())
    structure

let of_sources sources =
  let files =
    List.map
      (fun (path, text) ->
        { path; text; parsed = (try Ok (parse ~filename:path text) with exn -> Error exn) })
      sources
  in
  let prog =
    { files; by_path = Hashtbl.create 64; index = Hashtbl.create 256; own = Hashtbl.create 256 }
  in
  List.iter
    (fun file ->
      Hashtbl.replace prog.by_path file.path file;
      match file.parsed with Ok structure -> add_structure prog ~path:file.path structure | Error _ -> ())
    files;
  prog

let load_files paths =
  of_sources (List.map (fun path -> (path, In_channel.with_open_bin path In_channel.input_all)) paths)

let files prog = prog.files
let find_file prog path = Hashtbl.find_opt prog.by_path path
let lookup prog ~modname ~name = Hashtbl.find_opt prog.index (modname ^ "." ^ name)
let lookup_in prog ~path ~name = Hashtbl.find_opt prog.own (path, name)
