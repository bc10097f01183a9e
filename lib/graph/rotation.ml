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

(* Darts leaving v are numbered offset.(v) .. offset.(v + 1) - 1 in the
   order of v's sorted neighbour row; [at.(d)] is dart d's place in v's
   rotation.  One pass over the darts, O(n + m), with a scratch array
   mapping a neighbour to its slot in the current row.  Returns the
   offsets and the lookup [index]. *)
let dart_table t =
  let g = t.graph in
  let n = Graph.n g in
  let offset = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offset.(v + 1) <- offset.(v) + Graph.degree g v
  done;
  let slot = Array.make n 0 and at = Array.make offset.(n) 0 in
  for v = 0 to n - 1 do
    let row = Graph.neighbors g v and r = t.rot.(v) in
    for s = 0 to Array.length row - 1 do
      slot.(row.(s)) <- s
    done;
    for j = 0 to Array.length r - 1 do
      at.(offset.(v) + slot.(r.(j))) <- j
    done
  done;
  (offset, fun v u -> at.(offset.(v) + Graph.neighbor_slot g v u))

let index t = snd (dart_table t)

let faces t =
  let n = Graph.n t.graph in
  let offset, index = dart_table t in
  let visited = Array.make offset.(n) false in
  let out = ref [] in
  for u = 0 to n - 1 do
    for j = 0 to Array.length t.rot.(u) - 1 do
      if not visited.(offset.(u) + j) then begin
        (* darts are visited by rotation place: (u, j) leaves u towards
           rot.(u).(j) *)
        let walk = ref [] and cu = ref u and cj = ref j in
        while not visited.(offset.(!cu) + !cj) do
          visited.(offset.(!cu) + !cj) <- true;
          let v = t.rot.(!cu).(!cj) in
          walk := (!cu, v) :: !walk;
          (* next dart: at v, the successor of cu in the rotation *)
          cj := (index v !cu + 1) mod Array.length t.rot.(v);
          cu := v
        done;
        out := List.rev !walk :: !out
      end
    done
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
