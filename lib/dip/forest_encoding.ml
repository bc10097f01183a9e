type label = { c1 : int; c2 : int; parity : bool; root : bool }

(* Depths must tolerate cheating parent claims that contain pointer cycles
   (the spanning-tree verification is what catches those); on a cycle we
   anchor an arbitrary node at depth 0. *)
let depths ~n ~parent =
  let depth = Array.make n (-1) in
  let state = Array.make n 0 in
  let rec d v =
    if depth.(v) >= 0 then depth.(v)
    else if state.(v) = 1 then begin
      depth.(v) <- 0;
      0
    end
    else begin
      state.(v) <- 1;
      let r = if parent.(v) < 0 then 0 else 1 + d parent.(v) in
      state.(v) <- 2;
      if depth.(v) < 0 then depth.(v) <- r;
      depth.(v)
    end
  in
  for v = 0 to n - 1 do ignore (d v) done;
  depth

(* Contract every edge (v, parent v) with [which (depth v)] into the parent;
   color the resulting minor. *)
let contraction_coloring g ~parent ~depth ~which =
  let n = Graph.n g in
  let rep = Array.init n Fun.id in
  let rec find v = if rep.(v) = v then v else (rep.(v) <- find rep.(v); rep.(v)) in
  for v = 0 to n - 1 do
    if parent.(v) >= 0 && which depth.(v) then rep.(find v) <- find parent.(v)
  done;
  let reps = Array.init n find in
  (* Relabel reps densely. *)
  let dense = Array.make n (-1) in
  let count = ref 0 in
  Array.iter
    (fun r ->
      if dense.(r) = -1 then begin
        dense.(r) <- !count;
        incr count
      end)
    reps;
  let contracted_edges =
    Graph.fold_edges
      (fun (u, v) acc ->
        let a = dense.(reps.(u)) and b = dense.(reps.(v)) in
        if a <> b then (a, b) :: acc else acc)
      g []
  in
  let cg = Graph.create ~n:!count contracted_edges in
  let colors = Coloring.greedy cg in
  Array.init n (fun v -> colors.(dense.(reps.(v))))

let encode g ~parent =
  let n = Graph.n g in
  if Array.length parent <> n then invalid_arg "Forest_encoding.encode";
  Array.iteri
    (fun v p -> if p >= 0 && not (Graph.mem_edge g v p) then invalid_arg "Forest_encoding.encode: parent not a neighbor")
    parent;
  let depth = depths ~n ~parent in
  let c1 = contraction_coloring g ~parent ~depth ~which:(fun d -> d land 1 = 1) in
  let c2 = contraction_coloring g ~parent ~depth ~which:(fun d -> d land 1 = 0) in
  Array.init n (fun v -> { c1 = c1.(v); c2 = c2.(v); parity = depth.(v) land 1 = 1; root = parent.(v) < 0 })

let color_bits labels =
  let maxc = Array.fold_left (fun acc l -> max acc (max l.c1 l.c2)) 0 labels in
  max 1 (Ilog.ceil_log2 (maxc + 1))

let width ~cbits = (2 * cbits) + 2

let to_bits ~cbits l =
  let w = Bits.Writer.create () in
  Bits.Writer.int w ~width:cbits l.c1;
  Bits.Writer.int w ~width:cbits l.c2;
  Bits.Writer.bool w l.parity;
  Bits.Writer.bool w l.root;
  Bits.Writer.contents w

let read ~cbits r =
  let c1 = Bits.Reader.int r ~width:cbits in
  let c2 = Bits.Reader.int r ~width:cbits in
  let parity = Bits.Reader.bool r in
  let root = Bits.Reader.bool r in
  { c1; c2; parity; root }

(* Odd v: parent = even neighbor matching on c1; children = even neighbors
   matching on c2.  Even v: parent = odd neighbor matching on c2; children =
   odd neighbors matching on c1 (paper Lemma 2.3 proof). *)
let parent_candidates ~own ~nbrs =
  List.filter_map
    (fun (u, l) ->
      if l.parity <> own.parity && (if own.parity then l.c1 = own.c1 else l.c2 = own.c2) then Some u
      else None)
    nbrs

let locally_wellformed ~own ~nbrs =
  let cands = parent_candidates ~own ~nbrs in
  if own.root then List.is_empty cands else List.length cands = 1
