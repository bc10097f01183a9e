let bfs g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun w ->
        if dist.(w) = -1 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      (Graph.neighbors g v)
  done;
  dist

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let k = ref 0 in
  for src = 0 to n - 1 do
    if comp.(src) = -1 then begin
      let id = !k in
      incr k;
      let queue = Queue.create () in
      comp.(src) <- id;
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        Array.iter
          (fun w ->
            if comp.(w) = -1 then begin
              comp.(w) <- id;
              Queue.add w queue
            end)
          (Graph.neighbors g v)
      done
    end
  done;
  (comp, !k)

let is_connected g = Graph.n g = 0 || snd (components g) = 1

let spanning_tree g root =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let queue = Queue.create () in
  parent.(root) <- root;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun w ->
        if parent.(w) = -1 then begin
          parent.(w) <- v;
          Queue.add w queue
        end)
      (Graph.neighbors g v)
  done;
  parent

let tree_parent g root = Array.mapi (fun v p -> if p = v then -1 else p) (spanning_tree g root)

let children_of_parent parent =
  let children = Array.make (Array.length parent) [] in
  Array.iteri (fun v p -> if p >= 0 then children.(p) <- v :: children.(p)) parent;
  children

let dfs_order g root =
  let n = Graph.n g in
  let seen = Array.make n false in
  let out = ref [] in
  let rec go v =
    seen.(v) <- true;
    out := v :: !out;
    Array.iter (fun w -> if not seen.(w) then go w) (Graph.neighbors g v)
  in
  go root;
  List.rev !out

let hamiltonian_path_of_edges ~n es =
  if n = 0 then None
  else if n = 1 then if List.is_empty es then Some [ 0 ] else None
  else begin
    let deg = Array.make n 0 in
    let adj = Array.make n [] in
    let ok = ref (List.length es = n - 1) in
    List.iter
      (fun (u, v) ->
        if u < 0 || v < 0 || u >= n || v >= n || u = v then ok := false
        else begin
          deg.(u) <- deg.(u) + 1;
          deg.(v) <- deg.(v) + 1;
          adj.(u) <- v :: adj.(u);
          adj.(v) <- u :: adj.(v)
        end)
      es;
    if not !ok then None
    else begin
      let endpoints = ref [] in
      Array.iteri
        (fun v d ->
          if d = 1 then endpoints := v :: !endpoints
          else if d <> 2 then ok := false)
        deg;
      match (!ok, List.sort Int.compare !endpoints) with
      | true, [ a; _ ] ->
          (* Walk from [a]; success iff we cover all n nodes (rules out a
             path plus disjoint cycles, which the degree check alone would
             admit). *)
          let seen = Array.make n false in
          let rec walk v acc count =
            seen.(v) <- true;
            match List.filter (fun w -> not seen.(w)) adj.(v) with
            | [] -> if count = n then Some (List.rev (v :: acc)) else None
            | [ w ] -> walk w (v :: acc) (count + 1)
            | _ -> None
          in
          walk a [] 1
      | _ -> None
    end
  end
