type result = { verdict : Dip.verdict; stats : Dip.stats }

(* Depth bits: every depth stays below n, and a one-node tree still
   writes one bit. *)
let label_width g = Ilog.ceil_log2 (max 2 (Graph.n g))

(* The honest labels: distances to the root along the parent pointers.
   -2 marks a node in progress: a node whose parent is in progress closes
   a pointer cycle and takes depth 0 like a root, so the recursion ends and
   every depth stays below n (the label width); the cycle's checks fail. *)
let depths g ~parent =
  let dist = Array.make (Graph.n g) (-1) in
  let rec d v =
    if dist.(v) >= 0 then dist.(v)
    else begin
      dist.(v) <- -2;
      let p = parent.(v) in
      let r = if p < 0 || dist.(p) = -2 then 0 else 1 + d p in
      dist.(v) <- r;
      r
    end
  in
  for v = 0 to Graph.n g - 1 do ignore (d v) done;
  dist

let depths_to_bits g dist =
  (* dipp-refine: value <= log + 1 *)
  let width = label_width g in
  Array.map (fun d -> Bits.of_int ~width d) dist

let depth_of_bits g =
  let width = label_width g in
  fun b -> Bits_flat.Dec.parse Bits_flat.Flat b (fun d -> Bits_flat.Dec.int d ~width)

let verify_node g ~parent ~depth ~heard v =
  let p = parent.(v) in
  if p < 0 then depth = 0
  else
    Graph.mem_edge g v p
    && depth >= 1
    && match heard p with Some dp -> dp = depth - 1 | None -> true

let run g ~parent =
  let n = Graph.n g in
  let meter = Dip.meter () in
  let dist = depths g ~parent in
  Dip.record_prover meter (depths_to_bits g dist);
  let heard = Dip.heard_all dist in
  let verdict = Dip.all_accept ~n (fun v -> verify_node g ~parent ~depth:dist.(v) ~heard v) in
  { verdict; stats = Dip.stats meter }
