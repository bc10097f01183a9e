(* Graph constructions that only the tests use. *)

(* A planar base on n - 15 nodes with a once-subdivided K3,3 attached to
   node 0, the other Kuratowski obstruction next to Gen.nonplanar's K5. *)
let nonplanar_k33 ~n seed =
  let base = n - 15 in
  let g = Gen.planar ~n:base seed in
  let edges = ref [ (0, base) ] and mid = ref (base + 6) in
  for i = 0 to 2 do
    for j = 0 to 2 do
      edges := (base + i, !mid) :: (base + 3 + j, !mid) :: !edges;
      incr mid
    done
  done;
  Graph.create ~n (!edges @ Graph.edges g)
