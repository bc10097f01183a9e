type finding = { file : string; line : int; col : int; rule : string; msg : string }

let finding ~loc ~rule msg =
  let p = loc.Location.loc_start in
  {
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    msg;
  }

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with 0 -> String.compare a.rule b.rule | c -> c)
      | c -> c)
  | c -> c

let compare = compare_findings

let pp ppf f = Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.msg

let pp_report ppf findings =
  let sorted = List.sort_uniq compare_findings findings in
  List.iter (Format.fprintf ppf "%a@." pp) sorted;
  match sorted with
  | [] -> Format.fprintf ppf "dipp-lint: no findings@."
  | _ :: _ -> Format.fprintf ppf "dipp-lint: %d finding(s)@." (List.length sorted)

(* ---- machine-readable renderers --------------------------------------- *)

module Json = Dipp_util.Json

let pp_json ppf findings =
  let sorted = List.sort_uniq compare_findings findings in
  Format.fprintf ppf "[";
  List.iteri
    (fun i f ->
      Format.fprintf ppf "%s@.  {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \"msg\": \"%s\"}"
        (if i = 0 then "" else ",")
        (Json.escape f.file) f.line f.col (Json.escape f.rule) (Json.escape f.msg))
    sorted;
  Format.fprintf ppf "%s]@." (match sorted with [] -> "" | _ :: _ -> "\n")

let pp_sarif ppf findings =
  let sorted = List.sort_uniq compare_findings findings in
  let rule_ids = List.sort_uniq String.compare (List.map (fun f -> f.rule) sorted) in
  Format.fprintf ppf
    "{@.  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",@.  \"version\": \
     \"2.1.0\",@.  \"runs\": [{@.    \"tool\": {\"driver\": {\"name\": \"dipp-lint\", \
     \"rules\": [";
  List.iteri
    (fun i id -> Format.fprintf ppf "%s{\"id\": \"%s\"}" (if i = 0 then "" else ", ") (Json.escape id))
    rule_ids;
  Format.fprintf ppf "]}},@.    \"results\": [";
  List.iteri
    (fun i f ->
      Format.fprintf ppf
        "%s@.      {\"ruleId\": \"%s\", \"level\": \"error\", \"message\": {\"text\": \
         \"%s\"},@.       \"locations\": [{\"physicalLocation\": {\"artifactLocation\": \
         {\"uri\": \"%s\"},@.         \"region\": {\"startLine\": %d, \"startColumn\": \
         %d}}}]}"
        (if i = 0 then "" else ",")
        (Json.escape f.rule) (Json.escape f.msg) (Json.escape f.file) (max 1 f.line) (f.col + 1))
    sorted;
  Format.fprintf ppf "%s]@.  }]@.}@." (match sorted with [] -> "" | _ :: _ -> "\n    ")
