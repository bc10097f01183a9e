type edge = int * int

type t = { n : int; adj : int array array; m : int }

let normalize_edge u v =
  if u = v then invalid_arg "Graph: self-loop";
  if u < v then (u, v) else (v, u)

let compare_edge (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

module Edge_set = Set.Make (struct
  type t = edge

  let compare = compare_edge
end)

let dedup_edges n es =
  List.fold_left
    (fun acc (u, v) ->
      if u < 0 || v < 0 || u >= n || v >= n then invalid_arg "Graph: node out of range";
      Edge_set.add (normalize_edge u v) acc)
    Edge_set.empty es

(* Two-pass CSR-style build: count degrees, fill adjacency in place, then
   sort and dedup each row.  No intermediate per-node lists and no balanced
   set — O(m + sum_v d_v log d_v) with flat arrays only, which is what lets
   the 10^6-node generators and the streaming edge-list parser construct
   graphs in seconds.  Validation messages match the historical
   [dedup_edges] path byte for byte. *)
let of_edge_array ~n es =
  if n < 0 then invalid_arg "Graph.create";
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      if u < 0 || v < 0 || u >= n || v >= n then invalid_arg "Graph: node out of range";
      if u = v then invalid_arg "Graph: self-loop";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    es;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    es;
  let entries = ref 0 in
  for v = 0 to n - 1 do
    let a = adj.(v) in
    let len = Array.length a in
    if len > 0 then begin
      Array.sort Int.compare a;
      (* compact duplicates in place, then trim *)
      let w = ref 1 in
      for i = 1 to len - 1 do
        if a.(i) <> a.(!w - 1) then begin
          a.(!w) <- a.(i);
          incr w
        end
      done;
      if !w < len then adj.(v) <- Array.sub a 0 !w;
      entries := !entries + !w
    end
  done;
  { n; adj; m = !entries / 2 }

let create ~n es =
  if n < 0 then invalid_arg "Graph.create";
  of_edge_array ~n (Array.of_list es)

let n t = t.n
let m t = t.m
let neighbors t v = t.adj.(v)
let degree t v = Array.length t.adj.(v)

let max_degree t =
  let d = ref 0 in
  Array.iter (fun a -> d := max !d (Array.length a)) t.adj;
  !d

let neighbor_slot t u v =
  if u < 0 || v < 0 || u >= t.n || v >= t.n || u = v then -1
  else
    let a = t.adj.(u) in
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        if a.(mid) = v then mid else if a.(mid) < v then search (mid + 1) hi else search lo mid
    in
    search 0 (Array.length a)

let mem_edge t u v = neighbor_slot t u v >= 0

let fold_edges f t acc =
  let acc = ref acc in
  for u = 0 to t.n - 1 do
    Array.iter (fun v -> if u < v then acc := f (u, v) !acc) t.adj.(u)
  done;
  !acc

let iter_edges f t = fold_edges (fun e () -> f e) t ()

let edges t = List.rev (fold_edges (fun e acc -> e :: acc) t [])

let add_edges t es = create ~n:t.n (es @ edges t)

let remove_edges t es =
  let banned = List.fold_left (fun s (u, v) -> Edge_set.add (normalize_edge u v) s) Edge_set.empty es in
  create ~n:t.n (List.filter (fun e -> not (Edge_set.mem e banned)) (edges t))

(* Walks only the members' rows; a member's new id is found by binary
   search over the members sorted by old id, so one call costs
   O((k + sum of member degrees) log k) and nothing of size n. *)
let induced t nodes =
  let nodes = Array.of_list nodes in
  let k = Array.length nodes in
  let order = Array.init k Fun.id in
  Array.sort (fun i j -> Int.compare nodes.(i) nodes.(j)) order;
  for i = 1 to k - 1 do
    if nodes.(order.(i)) = nodes.(order.(i - 1)) then invalid_arg "Graph.induced: duplicate node"
  done;
  let new_id v =
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let w = nodes.(order.(mid)) in
        if w = v then order.(mid) else if w < v then search (mid + 1) hi else search lo mid
    in
    search 0 k
  in
  let es = ref [] in
  Array.iteri
    (fun i u ->
      Array.iter
        (fun v ->
          if u < v then
            let j = new_id v in
            if j >= 0 then es := (i, j) :: !es)
        t.adj.(u))
    nodes;
  (create ~n:k !es, nodes)

let relabel t ~perm =
  if Array.length perm <> t.n then invalid_arg "Graph.relabel";
  let seen = Array.make t.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= t.n || seen.(p) then invalid_arg "Graph.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  create ~n:t.n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (edges t))

let union_disjoint ts =
  let offsets = Array.make (List.length ts) 0 in
  let total =
    List.fold_left
      (fun (i, off) g ->
        offsets.(i) <- off;
        (i + 1, off + g.n))
      (0, 0) ts
    |> snd
  in
  let es =
    List.concat (List.mapi (fun i g -> List.map (fun (u, v) -> (u + offsets.(i), v + offsets.(i))) (edges g)) ts)
  in
  let maps = List.mapi (fun i g -> Array.init g.n (fun v -> v + offsets.(i))) ts in
  (create ~n:total es, Array.of_list maps)

let equal a b = a.n = b.n && Edge_set.equal (dedup_edges a.n (edges a)) (dedup_edges b.n (edges b))

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>graph(n=%d, m=%d:" t.n t.m;
  iter_edges (fun (u, v) -> Format.fprintf ppf "@ %d-%d" u v) t;
  Format.fprintf ppf ")@]"

let path_graph n = create ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle_graph n =
  if n < 3 then invalid_arg "Graph.cycle_graph";
  create ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      es := (u, v) :: !es
    done
  done;
  create ~n !es

let complete_bipartite a b =
  let es = ref [] in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      es := (u, v) :: !es
    done
  done;
  create ~n:(a + b) !es

let star n = create ~n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let grid rows cols =
  let id r c = (r * cols) + c in
  let es = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then es := (id r c, id r (c + 1)) :: !es;
      if r + 1 < rows then es := (id r c, id (r + 1) c) :: !es
    done
  done;
  create ~n:(rows * cols) !es

let subdivide t ~times =
  if times < 0 then invalid_arg "Graph.subdivide";
  if times = 0 then t
  else begin
    let next = ref t.n in
    let es = ref [] in
    iter_edges
      (fun (u, v) ->
        let prev = ref u in
        for _ = 1 to times do
          es := (!prev, !next) :: !es;
          prev := !next;
          incr next
        done;
        es := (!prev, v) :: !es)
      t;
    create ~n:!next !es
  end
