let is_outerplanar g =
  let n = Graph.n g in
  let aug = Graph.create ~n:(n + 1) (List.init n (fun v -> (v, n)) @ Graph.edges g) in
  Planarity.is_planar aug

(* Unique Hamiltonian cycle of a biconnected outerplanar graph via degree-2
   smoothing: remove a degree-2 vertex v with neighbors a, b; add edge (a,b);
   recurse; a and b are necessarily consecutive on the smaller cycle
   (uniqueness of the Hamiltonian cycle), so reinsert v between them. *)
let hamiltonian_cycle g =
  let n = Graph.n g in
  if n < 3 then None
  else if not (Biconnectivity.is_biconnected g && is_outerplanar g) then None
  else begin
    let rec peel g alive =
      (* [alive]: original ids of the current graph's nodes (current graph is
         on the full id space; dead nodes isolated). *)
      if List.length alive = 3 then Some alive
      else
        match List.find_opt (fun v -> Graph.degree g v = 2) alive with
        | None -> None
        | Some v ->
            let nb = Graph.neighbors g v in
            let a = nb.(0) and b = nb.(1) in
            let g' =
              Graph.add_edges
                (Graph.remove_edges g [ Graph.normalize_edge v a; Graph.normalize_edge v b ])
                [ Graph.normalize_edge a b ]
            in
            (match peel g' (List.filter (fun w -> w <> v) alive) with
            | None -> None
            | Some cyc ->
                (* insert v between a and b on the cycle *)
                let arr = Array.of_list cyc in
                let k = Array.length arr in
                let out = ref [] in
                let inserted = ref false in
                for i = k - 1 downto 0 do
                  let x = arr.(i) and y = arr.((i + 1) mod k) in
                  if (not !inserted) && ((x = a && y = b) || (x = b && y = a)) then begin
                    out := x :: v :: !out;
                    inserted := true
                  end
                  else out := x :: !out
                done;
                if !inserted then Some !out else None)
    in
    match peel g (List.init n Fun.id) with
    | None -> None
    | Some cyc ->
        (* Sanity: cyc must be a Hamiltonian cycle of g. *)
        let arr = Array.of_list cyc in
        let k = Array.length arr in
        let ok =
          k = n
          && List.sort_uniq Int.compare cyc = List.init n Fun.id
          && Array.for_all Fun.id (Array.init k (fun i -> Graph.mem_edge g arr.(i) arr.((i + 1) mod k)))
        in
        if ok then Some cyc else None
  end

let check_path_witness g path =
  let n = Graph.n g in
  match Traversal.hamiltonian_path_of_edges ~n (List.map (fun (a, b) -> Graph.normalize_edge a b) (let rec pairs = function a :: (b :: _ as r) -> (a, b) :: pairs r | _ -> [] in pairs path)) with
  | None -> false
  | Some _ ->
      (* [path] itself must list all nodes and consecutive ones adjacent. *)
      List.length path = n
      && List.sort_uniq Int.compare path = List.init n Fun.id
      && (let rec adj = function
            | a :: (b :: _ as r) -> Graph.mem_edge g a b && adj r
            | _ -> true
          in
          adj path)
      &&
      let pos = Array.make n 0 in
      List.iteri (fun i v -> pos.(v) <- i) path;
      (* Non-path edges as (l, r) position intervals. *)
      let intervals =
        Graph.fold_edges
          (fun (u, v) acc ->
            let l = min pos.(u) pos.(v) and r = max pos.(u) pos.(v) in
            if r - l = 1 then acc else (l, r) :: acc)
          g []
      in
      let starting = Array.make n [] in
      List.iter (fun (l, r) -> starting.(l) <- r :: starting.(l)) intervals;
      (* At position l, push ends in decreasing order so the nearest end is
         on top; crossing = a new interval outlasting its enclosing one. *)
      let stack = ref [] in
      let ok = ref true in
      for p = 0 to n - 1 do
        let rec close () =
          match !stack with
          | top :: rest when top = p ->
              stack := rest;
              close ()
          | _ -> ()
        in
        close ();
        List.iter
          (fun r ->
            (match !stack with
            | top :: _ when r > top -> ok := false
            | _ -> ());
            stack := r :: !stack)
          (List.sort (fun a b -> Int.compare b a) starting.(p))
      done;
      !ok && List.is_empty !stack

let path_of_cycle_cut cyc ~cut_after =
  (* cycle [c0..ck-1]; remove the cycle edge between positions cut_after and
     cut_after+1; path starts at cut_after+1. *)
  let arr = Array.of_list cyc in
  let k = Array.length arr in
  List.init k (fun i -> arr.((cut_after + 1 + i) mod k))

(* Hamiltonian path of a block from [start_] to [stop] (either may be [None]
   meaning free): the block's unique Hamiltonian cycle cut at an edge
   incident appropriately. *)
let block_path g nodes ~start_ ~stop =
  match nodes with
  | [ a ] -> Some [ a ]
  | [ a; b ] -> (
      match (start_, stop) with
      | Some s, Some t -> if s = a && t = b then Some [ a; b ] else if s = b && t = a then Some [ b; a ] else None
      | Some s, None -> Some (if s = a then [ a; b ] else [ b; a ])
      | None, Some t -> Some (if t = b then [ a; b ] else [ b; a ])
      | None, None -> Some [ a; b ])
  | _ -> (
      let sub, back = Graph.induced g nodes in
      match hamiltonian_cycle sub with
      | None -> None
      | Some cyc ->
          let cyc = List.map (fun v -> back.(v)) cyc in
          let k = List.length cyc in
          (* Every Hamiltonian path with proper nesting is the cycle minus
             one cycle edge (see Theorem 6.1); enumerate both orientations of
             every cut and keep one meeting the endpoint constraints. *)
          let candidates =
            List.concat_map
              (fun i ->
                let p = path_of_cycle_cut cyc ~cut_after:i in
                [ p; List.rev p ])
              (List.init k Fun.id)
          in
          let endpoint_ok want node = match want with None -> true | Some x -> x = node in
          List.find_opt
            (fun p ->
              endpoint_ok start_ (List.hd p) && endpoint_ok stop (List.nth p (k - 1)))
            candidates)

let path_witness g =
  let n = Graph.n g in
  if n = 0 then None
  else if n = 1 then Some [ 0 ]
  else if not (Traversal.is_connected g) then None
  else if Biconnectivity.is_biconnected g then
    if n = 2 then Some [ 0; 1 ]
    else
      match hamiltonian_cycle g with
      | None -> None
      | Some cyc -> Some (path_of_cycle_cut cyc ~cut_after:(List.length cyc - 1))
  else begin
    (* Block-chain: the block-cut tree must be a path of blocks. *)
    let bc = Biconnectivity.compute g in
    let k = Array.length bc.Biconnectivity.components in
    let cut_count b = List.length (List.filter (fun v -> bc.Biconnectivity.cut_vertex.(v)) bc.Biconnectivity.components.(b)) in
    let ends = List.filter (fun b -> cut_count b <= 1) (List.init k Fun.id) in
    let cut_in_blocks v =
      List.length (List.filter (fun b -> List.mem v bc.Biconnectivity.components.(b)) (List.init k Fun.id))
    in
    let chain_ok =
      List.for_all (fun b -> cut_count b <= 2) (List.init k Fun.id)
      && List.length ends = 2
      && List.for_all (fun v -> (not bc.Biconnectivity.cut_vertex.(v)) || cut_in_blocks v = 2) (List.init n Fun.id)
    in
    if not chain_ok then None
    else begin
      (* Walk the chain from one end block. *)
      let first = List.hd ends in
      let rec walk b ~entry visited acc =
        let cuts =
          List.filter
            (fun v -> bc.Biconnectivity.cut_vertex.(v) && Some v <> entry)
            bc.Biconnectivity.components.(b)
        in
        let exit = match cuts with [] -> None | [ v ] -> Some v | _ -> None in
        if (not (List.is_empty cuts)) && exit = None then None
        else
          match block_path g bc.Biconnectivity.components.(b) ~start_:entry ~stop:exit with
          | None -> None
          | Some p -> (
              (* drop the entry node (already emitted by the previous block) *)
              let p' = match (entry, p) with Some _, _ :: rest -> rest | _, _ -> p in
              let acc = acc @ p' in
              match exit with
              | None -> Some acc
              | Some v -> (
                  let next =
                    List.find_opt
                      (fun b' ->
                        b' <> b
                        && (not (List.mem b' visited))
                        && List.mem v bc.Biconnectivity.components.(b'))
                      (List.init k Fun.id)
                  in
                  match next with
                  | None -> None
                  | Some b' -> walk b' ~entry:(Some v) (b :: visited) acc))
      in
      match walk first ~entry:None [] [] with
      | Some p when check_path_witness g p -> Some p
      | _ -> None
    end
  end

(* Maximal outerplanar completion.  Cut the unique Hamiltonian cycle at
   the edge (order[n-1], order[0]): the chords become a properly nested
   interval family.  Each interior face corresponds to an interval (l, r)
   (the cut cycle edge being the root) with boundary l, the positions in
   (l, r) not strictly inside any child interval, and r; fanning every face
   from l triangulates it.  When all faces are triangles, m = 2n - 3. *)
let triangulate g =
  let n = Graph.n g in
  if n < 3 then None
  else
    match hamiltonian_cycle g with
    | None -> None
    | Some cyc ->
        let order = Array.of_list cyc in
        let pos = Array.make n 0 in
        Array.iteri (fun i v -> pos.(v) <- i) order;
        let intervals =
          Graph.fold_edges
            (fun (u, v) acc ->
              let a = min pos.(u) pos.(v) and b = max pos.(u) pos.(v) in
              if b - a >= 2 && not (a = 0 && b = n - 1) then (a, b) :: acc else acc)
            g []
        in
        (* nesting tree via a stack sweep; root face = (0, n-1) *)
        let sorted =
          List.sort (fun (l1, r1) (l2, r2) -> if l1 <> l2 then Int.compare l1 l2 else Int.compare r2 r1)
          ((0, n - 1) :: intervals)
        in
        let children = Hashtbl.create 16 in
        let stack = ref [] in
        List.iter
          (fun (l, r) ->
            let rec close () =
              match !stack with (_, r') :: rest when r' <= l -> stack := rest; close () | _ -> ()
            in
            close ();
            (match !stack with
            | parent :: _ ->
                Hashtbl.replace children parent ((l, r) :: Option.value ~default:[] (Hashtbl.find_opt children parent))
            | [] -> ());
            stack := (l, r) :: !stack)
          sorted;
        let module IS = Set.Make (struct
          type t = int * int

          let compare (a1, b1) (a2, b2) =
            match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c
        end) in
        let have = ref (List.fold_left (fun s iv -> IS.add iv s) IS.empty sorted) in
        let added = ref [] in
        List.iter
          (fun ((l, r) as face) ->
            let kids = Option.value ~default:[] (Hashtbl.find_opt children face) in
            let inside p = List.exists (fun (a, b) -> a < p && p < b) kids in
            let verts =
              l :: List.filter (fun p -> not (inside p)) (List.init (r - l - 1) (fun i -> l + 1 + i)) @ [ r ]
            in
            (* fan from l: chords to all face vertices except l, its face
               successor, and r *)
            (match verts with
            | _ :: _ :: rest ->
                List.iter
                  (fun x ->
                    if x <> r && x - l >= 2 && not (IS.mem (l, x) !have) then begin
                      have := IS.add (l, x) !have;
                      added := (l, x) :: !added
                    end)
                  (match rest with [] -> [] | _ -> List.filteri (fun i _ -> i < List.length rest - 0) rest)
            | _ -> ()))
          sorted;
        let new_edges = List.map (fun (a, b) -> Graph.normalize_edge order.(a) order.(b)) !added in
        Some (Graph.add_edges g new_edges)
