type t = { graph : Graph.t; rot : int array array }

let create graph rot =
  let n = Graph.n graph in
  if Array.length rot <> n then invalid_arg "Rotation.create: length";
  for v = 0 to n - 1 do
    let expected = Array.copy (Graph.neighbors graph v) in
    let got = Array.copy rot.(v) in
    Array.sort Int.compare got;
    Array.sort Int.compare expected;
    if got <> expected then invalid_arg "Rotation.create: rot.(v) not a permutation of neighbors"
  done;
  { graph; rot }

let default graph = { graph; rot = Array.init (Graph.n graph) (fun v -> Array.copy (Graph.neighbors graph v)) }

let index_of a x =
  let rec go i = if a.(i) = x then i else go (i + 1) in
  go 0

let next_around t ~v ~after =
  let r = t.rot.(v) in
  let k = Array.length r in
  r.((index_of r after + 1) mod k)

let prev_around t ~v ~after =
  let r = t.rot.(v) in
  let k = Array.length r in
  r.((index_of r after + k - 1) mod k)

let faces t =
  let n = Graph.n t.graph in
  (* Dart id: position of the dart (u -> v) as index j into rot.(u). *)
  let offset = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offset.(v + 1) <- offset.(v) + Array.length t.rot.(v)
  done;
  let dart_id u j = offset.(u) + j in
  let visited = Array.make offset.(n) false in
  let out = ref [] in
  for u = 0 to n - 1 do
    Array.iteri
      (fun j _ ->
        if not (visited.(dart_id u j)) then begin
          let walk = ref [] in
          let cu = ref u and cj = ref j in
          let continue = ref true in
          while !continue do
            visited.(dart_id !cu !cj) <- true;
            let v = t.rot.(!cu).(!cj) in
            walk := (!cu, v) :: !walk;
            (* next dart: at v, the successor of [cu] in rotation *)
            let r = t.rot.(v) in
            let k = Array.length r in
            let i = index_of r !cu in
            let nj = (i + 1) mod k in
            cu := v;
            cj := nj;
            if visited.(dart_id !cu !cj) then continue := false
          done;
          out := List.rev !walk :: !out
        end)
      t.rot.(u)
  done;
  List.rev !out

(* A node without darts lies in a face of its own, which no dart walk
   traces. *)
let face_count t =
  Array.fold_left (fun f r -> if Array.length r = 0 then f + 1 else f) (List.length (faces t)) t.rot

let euler_genus t =
  let n = Graph.n t.graph and m = Graph.m t.graph in
  let f = face_count t in
  let _, c = Traversal.components t.graph in
  (* Euler: n - m + f = 2c - eg  (eg = Euler genus summed over components). *)
  (2 * c) - (n - m + f)

let is_planar_embedding t = euler_genus t = 0

let dual t =
  let fs = faces t in
  let k = List.length fs in
  (* face id per dart *)
  let face_of = Hashtbl.create 16 in
  List.iteri (fun i f -> List.iter (fun d -> Hashtbl.replace face_of d i) f) fs;
  let edges =
    Graph.fold_edges
      (fun (u, v) acc ->
        let f1 = Hashtbl.find face_of (u, v) and f2 = Hashtbl.find face_of (v, u) in
        if f1 <> f2 then (f1, f2) :: acc else acc)
      t.graph []
  in
  Graph.create ~n:k edges

let corrupt_swap t rng =
  let n = Graph.n t.graph in
  let candidates = List.filter (fun v -> Array.length t.rot.(v) >= 3) (List.init n Fun.id) in
  match candidates with
  | [] -> None
  | _ ->
      let arr = Array.of_list candidates in
      let rec attempt tries =
        if tries = 0 then None
        else begin
          let v = arr.(Rng.int rng (Array.length arr)) in
          let r = Array.copy t.rot.(v) in
          let k = Array.length r in
          let i = Rng.int rng k in
          let j = (i + 1 + Rng.int rng (k - 1)) mod k in
          let tmp = r.(i) in
          r.(i) <- r.(j);
          r.(j) <- tmp;
          let rot = Array.copy t.rot in
          rot.(v) <- r;
          let t' = { t with rot } in
          if is_planar_embedding t' then attempt (tries - 1) else Some t'
        end
      in
      attempt 64
