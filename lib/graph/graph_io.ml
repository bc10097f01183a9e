(* Every rejection of malformed input carries the 1-based line number; the
   range check against a pinned [n] runs after the whole text is scanned, so
   it too can name the offending line instead of letting [Graph.create]'s
   positionless exception escape.

   Input is consumed one line at a time (a file is never slurped into a
   string) and edges accumulate in flat growable int arrays — line number,
   u, v in parallel — so the scan feeds {!Graph.of_edge_array}'s two-pass
   CSR build with no intermediate per-node or per-edge list.  At 10^6
   nodes / 3*10^6 edges the whole parse is three int vectors plus the
   final adjacency. *)

(* growable int vector *)
type ivec = { mutable a : int array; mutable len : int }

let ivec_create () = { a = Array.make 1024 0; len = 0 }

let ivec_push t x =
  if t.len = Array.length t.a then begin
    let a' = Array.make (2 * t.len) 0 in
    Array.blit t.a 0 a' 0 t.len;
    t.a <- a'
  end;
  t.a.(t.len) <- x;
  t.len <- t.len + 1

(* [next_line ()] yields lines without their terminating '\n' (any '\r'
   stays attached, exactly like the historical split-on-'\n' scan). *)
let parse_stream next_line =
  let lin = ivec_create () and us = ivec_create () and vs = ivec_create () in
  let pinned_n = ref None in
  let max_id = ref (-1) in
  let lineno = ref 0 in
  let rec scan () =
    match next_line () with
    | None -> ()
    | Some line ->
        incr lineno;
        let lineno = !lineno in
        let line =
          match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
        in
        let parts =
          List.filter
            (fun s -> s <> "")
            (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line))
        in
        let node_id tok =
          match int_of_string_opt tok with
          | Some v when v >= 0 -> v
          | Some v -> invalid_arg (Printf.sprintf "Graph_io: line %d: negative node id %d" lineno v)
          | None ->
              invalid_arg (Printf.sprintf "Graph_io: line %d: expected a node id, got %S" lineno tok)
        in
        (match parts with
        | [] -> ()
        | [ "n"; count ] -> (
            match int_of_string_opt count with
            | Some c when c >= 0 -> pinned_n := Some c
            | _ -> invalid_arg (Printf.sprintf "Graph_io: line %d: bad node count %S" lineno count))
        | [ a; b ] ->
            let u = node_id a and v = node_id b in
            if u = v then
              invalid_arg (Printf.sprintf "Graph_io: line %d: self-loop %d %d" lineno u v);
            max_id := max !max_id (max u v);
            ivec_push lin lineno;
            ivec_push us u;
            ivec_push vs v
        | parts ->
            invalid_arg
              (Printf.sprintf "Graph_io: line %d: expected 'u v', got %d fields" lineno
                 (List.length parts)));
        scan ()
  in
  scan ();
  let n = match !pinned_n with Some c -> c | None -> !max_id + 1 in
  for i = 0 to lin.len - 1 do
    let u = us.a.(i) and v = vs.a.(i) in
    if u >= n || v >= n then
      invalid_arg
        (Printf.sprintf "Graph_io: line %d: node id %d out of range (n = %d)" lin.a.(i) (max u v) n)
  done;
  Graph.of_edge_array ~n (Array.init lin.len (fun i -> (us.a.(i), vs.a.(i))))

let parse_edge_list text =
  let pos = ref 0 in
  let len = String.length text in
  let fin = ref false in
  let next_line () =
    if !fin then None
    else
      match String.index_from_opt text !pos '\n' with
      | Some i ->
          let line = String.sub text !pos (i - !pos) in
          pos := i + 1;
          Some line
      | None ->
          fin := true;
          Some (String.sub text !pos (len - !pos))
  in
  parse_stream next_line

let to_edge_list g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Graph.n g));
  Graph.iter_edges (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v)) g;
  Buffer.contents buf

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try parse_stream (fun () -> In_channel.input_line ic)
      with Invalid_argument msg -> invalid_arg (Printf.sprintf "%s: %s" path msg))

let write_file path g =
  let oc = open_out path in
  output_string oc (to_edge_list g);
  close_out oc

let to_dot ?(name = "g") ?(highlight = []) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n  node [shape=circle];\n" name);
  for v = 0 to Graph.n g - 1 do
    Buffer.add_string buf (Printf.sprintf "  %d;\n" v)
  done;
  Graph.iter_edges
    (fun (u, v) ->
      let attr = if List.mem (u, v) highlight then " [color=red, penwidth=2]" else "" in
      Buffer.add_string buf (Printf.sprintf "  %d -- %d%s;\n" u v attr))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
