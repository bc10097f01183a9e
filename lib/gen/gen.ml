(* ------------------------------------------------------------------ *)
(* LR-sorting                                                          *)
(* ------------------------------------------------------------------ *)

let lr_yes ~n ?(arcs_factor = 2) seed =
  let rng = Rng.create seed in
  let path = Array.init n Fun.id in
  let arcs = ref [] in
  for _ = 1 to arcs_factor * n do
    let a = Rng.int rng n and b = Rng.int rng n in
    let u = min a b and v = max a b in
    if v - u >= 2 then arcs := (u, v) :: !arcs
  done;
  (path, List.sort_uniq Graph.compare_edge !arcs)

let lr_no ~n ?(arcs_factor = 2) seed =
  let path, arcs = lr_yes ~n ~arcs_factor seed in
  let rng = Rng.create (seed + 7919) in
  let u = Rng.int rng (n / 2) in
  let v = u + 2 + Rng.int rng (n - u - 3) in
  let backward = (v, u) in
  (path, backward :: List.filter (fun a -> a <> (u, v)) arcs)

(* ------------------------------------------------------------------ *)
(* Path-outerplanarity                                                 *)
(* ------------------------------------------------------------------ *)

let nested_chords rng n =
  let edges = ref [] in
  let rec add l r depth =
    if r - l >= 2 && depth > 0 && Rng.int rng 3 > 0 then begin
      edges := (l, r) :: !edges;
      let m = l + 1 + Rng.int rng (r - l - 1) in
      add l m (depth - 1);
      add m r (depth - 1)
    end
  in
  add 0 (n - 1) 40;
  !edges

let path_outerplanar ~n seed =
  let rng = Rng.create seed in
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) @ nested_chords rng n in
  (Graph.create ~n (List.sort_uniq Graph.compare_edge edges), List.init n Fun.id)

let path_crossing ~n seed =
  if n < 8 then invalid_arg "Gen.path_crossing";
  let g, w = path_outerplanar ~n seed in
  let rng = Rng.create (seed + 31) in
  let a = Rng.int rng (n - 7) in
  let b = a + 1 and c = a + 2 + Rng.int rng 2 in
  let d = c + 2 in
  (* chords (a,c),(b,d),(a,d): a K4 minor with the path segments *)
  (Graph.add_edges g [ (a, c); (b, d); (a, d) ], w)

(* ------------------------------------------------------------------ *)
(* Outerplanarity                                                      *)
(* ------------------------------------------------------------------ *)

let block_edges rng size offset =
  (* biconnected outerplanar block: cycle + nested chords *)
  let cyc = List.init size (fun i -> (offset + i, offset + ((i + 1) mod size))) in
  let chords = List.map (fun (l, r) -> (offset + l, offset + r)) (nested_chords rng (size - 1)) in
  cyc @ List.filter (fun (a, b) -> abs (a - b) >= 2) chords

let outerplanar ~blocks seed =
  let rng = Rng.create seed in
  let edges = ref [] and next = ref 0 in
  for _ = 1 to blocks do
    let size = 4 + Rng.int rng 8 in
    let offset = if !next = 0 then 0 else !next - 1 in
    edges := block_edges rng size offset @ !edges;
    next := offset + size
  done;
  Graph.create ~n:!next
    (List.sort_uniq Graph.compare_edge (List.map (fun (a, b) -> Graph.normalize_edge a b) !edges))

let outerplanar_no ~blocks seed =
  let g = outerplanar ~blocks seed in
  (* force a K4 minor inside the first block *)
  Graph.add_edges g [ (0, 2); (1, 3); (0, 3) ]

let biconnected_outerplanar ~n seed =
  let rng = Rng.create seed in
  Graph.create ~n
    (List.sort_uniq Graph.compare_edge
       (List.map (fun (a, b) -> Graph.normalize_edge a b) (block_edges rng n 0)))

let maximal_outerplanar ~n seed =
  match Outerplanar.triangulate (biconnected_outerplanar ~n seed) with
  | Some g -> g
  | None -> invalid_arg "Gen.maximal_outerplanar"


(* ------------------------------------------------------------------ *)
(* Planar graphs                                                       *)
(* ------------------------------------------------------------------ *)

(* Apollonian-style stacking into random faces, then random deletions that
   keep the graph connected.  Near-linear:
   - the faces live in a Fenwick tree over 3n slots filled from the top
     down, three per step in the order (a,b,v), (a,c,v), (b,c,v) from the
     front, so the k-th live slot is the k-th face of a newest-first face
     list and each draw picks a face in O(log n);
   - a candidate edge is dropped exactly when it is not a bridge of what
     is left, decided by [bridge] on per-CSR-slot flags.
   The graph is built twice: once stacked, once at the end. *)

(* Fenwick tree over slots [0 .. size-1] holding 0/1 counts. *)
let fenwick_add fen i d =
  let i = ref (i + 1) in
  while !i < Array.length fen do
    fen.(!i) <- fen.(!i) + d;
    i := !i + (!i land - !i)
  done

(* The slot holding the k-th (from 0) set count. *)
let fenwick_find fen k =
  let size = Array.length fen - 1 in
  let step = ref 1 in
  while 2 * !step <= size do
    step := 2 * !step
  done;
  let pos = ref 0 and rem = ref (k + 1) in
  while !step > 0 do
    let nx = !pos + !step in
    if nx <= size && fen.(nx) < !rem then begin
      pos := nx;
      rem := !rem - fen.(nx)
    end;
    step := !step / 2
  done;
  !pos

let planar ~n seed =
  if n < 3 then invalid_arg "Gen.planar";
  let rng = Rng.create seed in
  let slots = 3 * n in
  let fen = Array.make (slots + 1) 0 in
  let fa = Array.make slots 0 and fb = Array.make slots 0 and fc = Array.make slots 0 in
  let top = ref slots in
  let push a b c =
    decr top;
    fa.(!top) <- a;
    fb.(!top) <- b;
    fc.(!top) <- c;
    fenwick_add fen !top 1
  in
  push 0 1 2;
  let edges = Array.make (3 * (n - 2)) (0, 0) in
  edges.(0) <- (0, 1);
  edges.(1) <- (1, 2);
  edges.(2) <- (0, 2);
  for v = 3 to n - 1 do
    let s = fenwick_find fen (Rng.int rng (1 + (2 * (v - 3)))) in
    let a = fa.(s) and b = fb.(s) and c = fc.(s) in
    fenwick_add fen s (-1);
    let e = 3 * (v - 2) in
    edges.(e) <- (v, a);
    edges.(e + 1) <- (v, b);
    edges.(e + 2) <- (v, c);
    push b c v;
    push a c v;
    push a b v
  done;
  let g = Graph.of_edge_array ~n edges in
  (* Flags per CSR slot, row u from off.(u): set on both ends of every
     dropped edge and of every candidate found to be a bridge.  A bridge
     can stay flagged: no cycle runs through it, so no later search needs
     it, and later deletions keep it a bridge. *)
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Graph.degree g u
  done;
  let gone = Bytes.make off.(n) '\000' in
  let seen = Array.make n 0 and qa = Array.make n 0 and qb = Array.make n 0 in
  let stamp = ref 0 in
  (* Is u-v, already flagged, a bridge of what is left?  Two
     breadth-first searches, from u and from v, advance one vertex at a
     time and stop when one reaches a vertex the other has seen (not a
     bridge) or runs out (a bridge), so a non-bridge usually costs one
     triangle and a bridge the smaller side.  [seen] holds [sa] for u's
     side and [sb] for v's, fresh per call. *)
  let bridge u v =
    stamp := !stamp + 2;
    let sa = !stamp and sb = !stamp + 1 in
    seen.(u) <- sa;
    seen.(v) <- sb;
    qa.(0) <- u;
    qb.(0) <- v;
    let ha = ref 0 and ta = ref 1 and hb = ref 0 and tb = ref 1 in
    let expand q head tail own other =
      let x = q.(!head) in
      incr head;
      let row = Graph.neighbors g x in
      let met = ref false and i = ref 0 in
      while (not !met) && !i < Array.length row do
        if Bytes.get gone (off.(x) + !i) = '\000' then begin
          let w = row.(!i) in
          if seen.(w) = other then met := true
          else if seen.(w) <> own then begin
            seen.(w) <- own;
            q.(!tail) <- w;
            incr tail
          end
        end;
        incr i
      done;
      !met
    in
    let rec go () =
      if !ha = !ta || !hb = !tb then true
      else if expand qa ha ta sa sb || expand qb hb tb sb sa then false
      else go ()
    in
    go ()
  in
  (* Candidates in lexicographic order, one draw per edge.  An edge's fate
     is final once decided: later deletions keep a bridge a bridge. *)
  let out = Array.make (Graph.m g) (0, 0) and kept = ref 0 in
  for u = 0 to n - 1 do
    Array.iteri
      (fun i v ->
        if u < v then begin
          let keep =
            Rng.int rng 4 <> 0
            || begin
                 Bytes.set gone (off.(u) + i) '\001';
                 Bytes.set gone (off.(v) + Graph.neighbor_slot g v u) '\001';
                 bridge u v
               end
          in
          if keep then begin
            out.(!kept) <- (u, v);
            incr kept
          end
        end)
      (Graph.neighbors g u)
  done;
  Graph.of_edge_array ~n (Array.sub out 0 !kept)

let planar_bounded_degree ~n seed =
  let rng = Rng.create seed in
  let side = max 2 (int_of_float (sqrt (float_of_int n))) in
  let g = Graph.grid side side in
  (* add one diagonal per cell at random: stays planar, degree <= 8 *)
  let extra = ref [] in
  for r = 0 to side - 2 do
    for c = 0 to side - 2 do
      let id x y = (x * side) + y in
      if Rng.bool rng then extra := (id r c, id (r + 1) (c + 1)) :: !extra
      else extra := (id r (c + 1), id (r + 1) c) :: !extra
    done
  done;
  Graph.add_edges g !extra

let nonplanar ~n seed =
  if n < 20 then invalid_arg "Gen.nonplanar";
  let g = planar ~n:(n - 15) seed in
  (* splice in a K5 subdivided once (15 fresh nodes: 5 branch + 10 middles),
     attached to node 0 *)
  let base = n - 15 in
  let branch = Array.init 5 (fun i -> base + i) in
  let mid = ref (base + 5) in
  let edges = ref [ (0, branch.(0)) ] in
  for i = 0 to 4 do
    for j = i + 1 to 4 do
      let m = !mid in
      incr mid;
      edges := (branch.(i), m) :: (m, branch.(j)) :: !edges
    done
  done;
  Graph.create ~n ((!edges |> List.map (fun (a, b) -> Graph.normalize_edge a b)) @ Graph.edges g)

(* ------------------------------------------------------------------ *)
(* Large-scale planar families (the sharded-engine size ladder)        *)
(* ------------------------------------------------------------------ *)

(* All four builders below assemble a flat edge array and construct
   through Graph.of_edge_array's two-pass CSR build — no per-edge lists,
   no O(n^2) face scans — so the 10^6 rung of the ladder materializes in
   seconds. *)

(* [n] exact: a side x side grid with one random diagonal per cell
   (planar, degree <= 8) and the n - side^2 leftover nodes trailing as a
   path off the last grid corner (still planar and connected). *)
let triangulated_grid ~n seed =
  if n < 4 then invalid_arg "Gen.triangulated_grid";
  let rng = Rng.create seed in
  let side = max 2 (int_of_float (sqrt (float_of_int n))) in
  let base = side * side in
  let leftover = n - base in
  let ec = (2 * side * (side - 1)) + ((side - 1) * (side - 1)) + leftover in
  let edges = Array.make ec (0, 0) in
  let w = ref 0 in
  let put e =
    edges.(!w) <- e;
    incr w
  in
  let id r c = (r * side) + c in
  for r = 0 to side - 1 do
    for c = 0 to side - 1 do
      if c + 1 < side then put (id r c, id r (c + 1));
      if r + 1 < side then put (id r c, id (r + 1) c);
      if c + 1 < side && r + 1 < side then
        if Rng.bool rng then put (id r c, id (r + 1) (c + 1))
        else put (id r (c + 1), id (r + 1) c)
    done
  done;
  for v = base to n - 1 do
    put (v - 1, v)
  done;
  Graph.of_edge_array ~n edges

(* Apollonian stacked triangulation with an array-backed face pool:
   pick a random face, split it into three — O(1) per node, maximal
   planar (m = 3n - 6). *)
let nested_triangulation ~n seed =
  if n < 3 then invalid_arg "Gen.nested_triangulation";
  let rng = Rng.create seed in
  let edges = Array.make (3 + (3 * (n - 3))) (0, 0) in
  edges.(0) <- (0, 1);
  edges.(1) <- (1, 2);
  edges.(2) <- (0, 2);
  let nfaces = 1 + (2 * (n - 3)) in
  let fa = Array.make (max 1 nfaces) 0 in
  let fb = Array.make (max 1 nfaces) 0 in
  let fc = Array.make (max 1 nfaces) 0 in
  fa.(0) <- 0;
  fb.(0) <- 1;
  fc.(0) <- 2;
  let faces = ref 1 in
  for v = 3 to n - 1 do
    let k = Rng.int rng !faces in
    let a = fa.(k) and b = fb.(k) and c = fc.(k) in
    let e = 3 + (3 * (v - 3)) in
    edges.(e) <- (a, v);
    edges.(e + 1) <- (b, v);
    edges.(e + 2) <- (c, v);
    (* replace face k with (a, b, v); append (a, c, v) and (b, c, v) *)
    fc.(k) <- v;
    fa.(!faces) <- a;
    fb.(!faces) <- c;
    fc.(!faces) <- v;
    fa.(!faces + 1) <- b;
    fb.(!faces + 1) <- c;
    fc.(!faces + 1) <- v;
    faces := !faces + 2
  done;
  Graph.of_edge_array ~n edges

(* A once-subdivided K5 (5 branch + 10 middle nodes) attached to node 0 of
   a planar base — the matching no-instances for the two families above. *)
let splice_k5 ~n base_graph =
  let base = n - 15 in
  (* 1 attachment edge + 10 subdivided K5 edges of 2 segments each *)
  let extra = Array.make 21 (0, 0) in
  let w = ref 0 in
  extra.(0) <- (0, base);
  incr w;
  let mid = ref (base + 5) in
  for i = 0 to 4 do
    for j = i + 1 to 4 do
      let m = !mid in
      incr mid;
      extra.(!w) <- (base + i, m);
      extra.(!w + 1) <- (m, base + j);
      w := !w + 2
    done
  done;
  let base_edges = Array.of_list (Graph.edges base_graph) in
  Graph.of_edge_array ~n (Array.append base_edges extra)

let triangulated_grid_no ~n seed =
  if n < 20 then invalid_arg "Gen.triangulated_grid_no";
  splice_k5 ~n (triangulated_grid ~n:(n - 15) seed)

let nested_triangulation_no ~n seed =
  if n < 18 then invalid_arg "Gen.nested_triangulation_no";
  splice_k5 ~n (nested_triangulation ~n:(n - 15) seed)

let embedding g = Planarity.embed g

let corrupted_embedding g seed =
  match Planarity.embed g with
  | None -> None
  | Some rot -> Rotation.corrupt_swap rot (Rng.create seed)

(* ------------------------------------------------------------------ *)
(* Series-parallel / treewidth 2                                       *)
(* ------------------------------------------------------------------ *)

let sp_tree_gen rng s t fresh budget =
  let next = ref fresh in
  let rec build s t budget =
    if budget <= 1 then Series_parallel.Edge (s, t)
    else if Rng.int rng 2 = 0 then begin
      let x = !next in
      incr next;
      Series_parallel.Series (build s x (budget / 2), build x t (budget - (budget / 2)))
    end
    else begin
      let x = !next in
      incr next;
      (* the second parallel branch always starts with a fresh node, so no
         edge is ever produced twice *)
      Series_parallel.Parallel
        (build s t (budget / 2), Series_parallel.Series (Series_parallel.Edge (s, x), build x t (budget - (budget / 2))))
    end
  in
  let tr = build s t budget in
  (tr, !next)

let series_parallel ~size seed =
  let rng = Rng.create seed in
  let tr, n = sp_tree_gen rng 0 1 2 size in
  (tr, Series_parallel.graph_of_sp ~n tr)

let series_parallel_no ~size seed =
  let tr, g = series_parallel ~size seed in
  let n = Graph.n g in
  let rng = Rng.create (seed + 4242) in
  let rec try_edge tries =
    if tries = 0 then None
    else begin
      let a = Rng.int rng n and b = Rng.int rng n in
      if a <> b && not (Graph.mem_edge g a b) then begin
        let g2 = Graph.add_edges g [ (a, b) ] in
        if not (Series_parallel.is_series_parallel g2) then Some (g2, (a, b)) else try_edge (tries - 1)
      end
      else try_edge (tries - 1)
    end
  in
  match try_edge 100 with
  | None -> None
  | Some (g2, (a, b)) ->
      let ears = Series_parallel.ears_of_sp tr in
      Some (g2, ears @ [ [ a; b ] ])

let treewidth2 ~blocks seed =
  let rng = Rng.create seed in
  let edges = ref [] and fresh = ref 2 in
  let rec collect = function
    | Series_parallel.Edge (u, v) -> [ (u, v) ]
    | Series_parallel.Series (a, b) | Series_parallel.Parallel (a, b) -> collect a @ collect b
  in
  let tr, nx = sp_tree_gen rng 0 1 !fresh 8 in
  fresh := nx;
  edges := collect tr;
  let cur = ref 1 in
  for _ = 2 to blocks do
    let t = !fresh in
    incr fresh;
    let tr, nx = sp_tree_gen rng !cur t !fresh 8 in
    fresh := nx;
    edges := collect tr @ !edges;
    cur := t
  done;
  Graph.create ~n:!fresh (List.map (fun (a, b) -> Graph.normalize_edge a b) !edges)

let treewidth2_no ~blocks seed =
  let g = treewidth2 ~blocks seed in
  let n = Graph.n g in
  let rng = Rng.create (seed + 5151) in
  let rec try_edge tries =
    if tries = 0 then None
    else begin
      let a = Rng.int rng n and b = Rng.int rng n in
      if a <> b && not (Graph.mem_edge g a b) then begin
        let g2 = Graph.add_edges g [ (a, b) ] in
        if Traversal.is_connected g2 && not (Series_parallel.is_treewidth_le_2 g2) then Some g2
        else try_edge (tries - 1)
      end
      else try_edge (tries - 1)
    end
  in
  try_edge 150
