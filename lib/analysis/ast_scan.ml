(* Sorted, so every pass reports files in the same order; dotfiles and
   dune's [_build] are never source. *)
let ml_files roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.filter (fun name -> name <> "" && name.[0] <> '.' && name <> "_build")
      |> List.fold_left (fun acc name -> walk acc (Filename.concat path name)) acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.rev (List.fold_left walk [] roots)

let rec ident_path = function
  | Longident.Lident s -> s
  | Longident.Ldot (p, s) -> ident_path p ^ "." ^ s
  | Longident.Lapply (a, b) -> ident_path a ^ "(" ^ ident_path b ^ ")"

let last_two = function
  | Longident.Ldot (Longident.Lident m, s) -> Some (m, s)
  | Longident.Ldot (Longident.Ldot (_, m), s) -> Some (m, s)
  | Longident.Lident _ | Longident.Ldot (Longident.Lapply _, _) | Longident.Lapply _ -> None

let pattern_vars p =
  let acc = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self pat ->
          (match pat.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> acc := txt :: !acc
          | Parsetree.Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self pat);
    }
  in
  iter.pat iter p;
  !acc

(* ---- marker comments ------------------------------------------------ *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '\''

let marker_comments ~marker src =
  let m = String.length marker in
  List.concat
    (List.mapi
       (fun i line ->
         match find_sub line marker with
         | None -> []
         | Some j ->
             let rest = String.sub line (j + m) (String.length line - j - m) in
             let rest = match find_sub rest "*)" with Some k -> String.sub rest 0 k | None -> rest in
             [ (i + 1, rest) ])
       (String.split_on_char '\n' src))

let annotation_at tbl ~line =
  let at l = Option.map (fun a -> (l, a)) (Hashtbl.find_opt tbl l) in
  match at line with Some _ as hit -> hit | None -> at (line - 1)

(* ---- suppressions ---------------------------------------------------- *)

type suppressions = (int, string list) Hashtbl.t

let is_rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_'

(* Splits on anything that cannot appear in a rule id. *)
let rule_tokens rest =
  let toks = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  String.iter (fun c -> if is_rule_char c then Buffer.add_char buf c else flush ()) rest;
  flush ();
  List.rev !toks

let suppressions_of_source src : suppressions =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (line, text) ->
      match rule_tokens text with
      | "allow" :: (_ :: _ as rules) -> Hashtbl.replace tbl line rules
      | _ -> ())
    (marker_comments ~marker:"dipp-lint:" src);
  tbl

let suppressed tbl ~line ~rule =
  let covers l =
    match Hashtbl.find_opt tbl l with
    | Some rules -> List.mem rule rules || List.mem "all" rules
    | None -> false
  in
  covers line || covers (line - 1)

let suppression_entries tbl =
  Hashtbl.fold (fun line rules acc -> (line, rules) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
