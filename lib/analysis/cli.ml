(* The dipp-lint command line, as a library function so the exit-code
   contract and the renderers are testable without spawning a process. *)

let usage = "dipp_lint [options] [path ...]"

type format = Text | Json | Sarif

let renderer = function
  | Text -> Report.pp_report
  | Json -> Report.pp_json
  | Sarif -> Report.pp_sarif

(* The proved-safe listings: every site a pass proved (or trusts) safe,
   one `file:line:col: [tag] proof` line each, then a total.  [sites]
   runs the pass over one parsed file of the program. *)
let print_safe_listing out roots ~tag ~total sites =
  let program = Typed_scan.load_files (Ast_scan.ml_files roots) in
  let count = ref 0 in
  List.iter
    (fun (file : Typed_scan.file) ->
      match file.parsed with
      | Error _ -> ()
      | Ok structure ->
          List.iter
            (fun (sfile, line, col, desc) ->
              incr count;
              Format.fprintf out "%s:%d:%d: [%s] %s@." sfile line col tag desc)
            (sites ~program file structure))
    (Typed_scan.files program);
  Format.fprintf out "%d %s proved safe@." !count total

let refine_sites ~program (file : Typed_scan.file) structure =
  let annots = Refine.annotations_of_source file.text in
  List.map
    (fun (s : Refine.safe) -> (s.sfile, s.sline, s.scol, s.sdesc))
    (Refine.analyze ~program ~annots ~filename:file.path structure).safe

let race_sites ~program (file : Typed_scan.file) structure =
  let annots = Race.annotations_of_source file.text in
  List.map
    (fun (s : Race.safe) -> (s.rfile, s.rline, s.rcol, s.rdesc))
    (Race.analyze ~program ~annots ~filename:file.path structure).safe

let run ?(out = Format.std_formatter) ?(err = Format.err_formatter) argv =
  let paths = ref [] and selected = ref [] and list_rules = ref false in
  let refine_safe = ref false and race_safe = ref false in
  let format = ref Text in
  let spec =
    [
      ( "--rules",
        Arg.String (fun s -> selected := !selected @ String.split_on_char ',' s),
        "r1,r2 run only the named rules (default: all)" );
      ("--list-rules", Arg.Set list_rules, " print the known rules and exit");
      ( "--refine-safe",
        Arg.Set refine_safe,
        " print the subscripts the refinement pass proved in bounds and exit" );
      ( "--race-safe",
        Arg.Set race_safe,
        " print the shared-state sites the domain-safety pass proved safe and exit" );
      ( "--format",
        Arg.Symbol
          ( [ "text"; "json"; "sarif" ],
            fun s ->
              format :=
                match s with "json" -> Json | "sarif" -> Sarif | _ -> Text ),
        " output format (default: text)" );
    ]
  in
  match Arg.parse_argv ~current:(ref 0) argv spec (fun p -> paths := p :: !paths) usage with
  | exception Arg.Bad msg ->
      Format.fprintf err "%s@?" msg;
      2
  | exception Arg.Help msg ->
      Format.fprintf out "%s@?" msg;
      0
  | () -> (
      if !list_rules then begin
        List.iter
          (fun (r : Lint_rules.rule) -> Format.fprintf out "%-20s %s@." r.id r.summary)
          Lint_rules.rules;
        0
      end
      else
        let known = List.map (fun (r : Lint_rules.rule) -> r.id) Lint_rules.rules in
        match
          List.find_opt (fun r -> not (List.exists (String.equal r) known)) !selected
        with
        | Some bad ->
            Format.fprintf err "dipp_lint: unknown rule %s (try --list-rules)@." bad;
            2
        | None -> (
            let roots = match List.rev !paths with [] -> [ "lib" ] | ps -> ps in
            match List.find_opt (fun root -> not (Sys.file_exists root)) roots with
            | Some missing ->
                Format.fprintf err "dipp_lint: no such path %s@." missing;
                2
            | None when !refine_safe ->
                print_safe_listing out roots ~tag:"refine-safe" ~total:"subscript(s)" refine_sites;
                0
            | None when !race_safe ->
                print_safe_listing out roots ~tag:"race-safe" ~total:"shared-state site(s)"
                  race_sites;
                0
            | None -> (
                let findings = Lint_rules.lint_paths roots in
                let findings =
                  match !selected with
                  | [] -> findings
                  | sel ->
                      List.filter
                        (fun (f : Report.finding) -> List.exists (String.equal f.rule) sel)
                        findings
                in
                Format.fprintf out "%a@?" (renderer !format) findings;
                match findings with [] -> 0 | _ :: _ -> 1)))
