type instance = { graph : Graph.t; witness : int list option }

type prover = Honest | Crossing_sweep | Flip_orientation | Fake_path

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  lr : Lr_sorting.result option;
  transcript : (Dip.phase * Bits.t array) list;
}

(* ------------------------------------------------------------------ *)
(* Nesting machinery: intervals, marks, successor/above sweep.         *)
(* ------------------------------------------------------------------ *)

module Edge_map = Map.Make (struct
  type t = Graph.edge

  let compare = Graph.compare_edge
end)

type edge_data = {
  tail : int;  (* node claimed left *)
  head : int;
  m_tail : bool;  (* claimed longest tail-right edge *)
  m_head : bool;  (* claimed longest head-left edge *)
  name : Bits.t * Bits.t;
  succ : (Bits.t * Bits.t) option;
}

(* Tolerant interval sweep over claimed intervals (l, r):
   - successor of each interval = stack top when it is pushed;
   - above of each position = stack top after closing, before opening.
   On properly nested inputs this is exactly the paper's successor/above
   structure; on crossing inputs it is the cheating prover's best effort. *)
let sweep ~n intervals =
  (* intervals: (l, r, key) with l < r *)
  let starting = Array.make n [] in
  List.iter (fun (l, r, key) -> starting.(l) <- (r, key) :: starting.(l)) intervals;
  for p = 0 to n - 1 do
    starting.(p) <- List.sort (fun (r1, _) (r2, _) -> Int.compare r2 r1) starting.(p)
  done;
  let stack = ref [] in
  let succ_of = Hashtbl.create 16 in
  let above = Array.make n None in
  for p = 0 to n - 1 do
    stack := List.filter (fun (r, _) -> r > p) !stack;
    above.(p) <- (match !stack with (_, k) :: _ -> Some k | [] -> None);
    List.iter
      (fun (r, key) ->
        Hashtbl.replace succ_of key (match !stack with (_, k) :: _ -> Some k | [] -> None);
        stack := (r, key) :: !stack)
      starting.(p)
  done;
  (succ_of, above)

(* True longest marks per node, from claimed intervals. *)
let longest_marks ~n intervals =
  let best_right = Array.make n None and best_left = Array.make n None in
  List.iter
    (fun (l, r, key) ->
      (match best_right.(l) with
      | Some (r', _) when r' >= r -> ()
      | _ -> best_right.(l) <- Some (r, key));
      match best_left.(r) with
      | Some (l', _) when l' <= l -> ()
      | _ -> best_left.(r) <- Some (l, key))
    intervals;
  (best_right, best_left)

(* ------------------------------------------------------------------ *)
(* Main execution.                                                     *)
(* ------------------------------------------------------------------ *)

let path_parents ~n path =
  (* parent = left neighbour, root = leftmost *)
  let parent = Array.make n (-1) in
  let rec link prev = function
    | v :: rest ->
        parent.(v) <- prev;
        link v rest
    | [] -> ()
  in
  (match path with first :: rest -> link first rest | [] -> ());
  parent

let run ?(seed = 0) ?(c = 3) ?param_n ?(retain = false) ?(codec = Bits_flat.Flat) ~prover inst =
  let g = inst.graph in
  let n = Graph.n g in
  if n = 0 then invalid_arg "Path_outerplanarity.run: empty graph";
  let rng = Rng.create seed in
  let meter = Dip.meter ~retain () in
  let sizing_n = max n (Option.value ~default:n param_n) in
  let pa = Lr_sorting.Params.make ~c sizing_n in
  let nb = Fp.bit_width pa.Lr_sorting.Params.p in
  (* name strings have c * Theta(log log n) bits *)
  let el = Edge_labels.create g in
  let lenc =
    Bounds.label_encoder codec "path_outerplanarity" ~n:sizing_n ~delta:(Graph.max_degree g)
  in

  (* -------- the claimed path ---------------------------------------- *)
  let true_witness =
    match inst.witness with Some w -> Some w | None -> Outerplanar.path_witness g
  in
  let claimed_parent =
    match prover with
    | Fake_path ->
        (* two disjoint segments: cut the (claimed or index-order) path *)
        let base =
          match true_witness with Some w -> Array.of_list w | None -> Array.init n Fun.id
        in
        let parent = Array.make n (-1) in
        let cut = n / 2 in
        Array.iteri (fun i v -> if i > 0 && i <> cut then parent.(v) <- base.(i - 1)) base;
        (* only keep parent pointers that are real edges *)
        Array.mapi (fun v p -> if p >= 0 && Graph.mem_edge g v p then p else -1) parent
    | Honest | Crossing_sweep | Flip_orientation -> (
        match true_witness with
        | Some w -> path_parents ~n w
        | None ->
            (* no nesting path known: best-effort commitment — chain the DFS
               preorder wherever consecutive nodes are adjacent (the local
               path-shape and spanning-tree checks reject the gaps) *)
            let order = Traversal.dfs_order g 0 in
            let parent = Array.make n (-1) in
            let rec chain = function
              | a :: (b :: _ as rest) ->
                  if Graph.mem_edge g a b then parent.(b) <- a;
                  chain rest
              | _ -> ()
            in
            chain order;
            parent)
  in

  (* -------- Round 1 (prover) ---------------------------------------- *)
  let enc = Forest_encoding.encode g ~parent:claimed_parent in
  let cbits = Forest_encoding.color_bits enc in
  let children = Traversal.children_of_parent claimed_parent in
  (* claimed path order, if the committed structure is one *)
  let claimed_path =
    let roots = List.filter (fun v -> claimed_parent.(v) < 0) (List.init n Fun.id) in
    match roots with
    | [ r ] ->
        let rec walk v acc count =
          match children.(v) with
          | [] -> if count = n then Some (List.rev (v :: acc)) else None
          | [ c ] -> walk c (v :: acc) (count + 1)
          | _ -> None
        in
        walk r [] 1
    | _ -> None
  in
  let pos =
    match claimed_path with
    | Some p ->
        let a = Array.make n 0 in
        List.iteri (fun i v -> a.(v) <- i) p;
        Some a
    | None -> None
  in
  (* claimed orientation per non-path edge + intervals *)
  let is_path_edge u v = claimed_parent.(u) = v || claimed_parent.(v) = u in
  let nonpath_edges = List.filter (fun (u, v) -> not (is_path_edge u v)) (Graph.edges g) in
  let crossing_keys =
    (* edges involved in a crossing w.r.t. the claimed path (used by the
       cheating orientations) *)
    match pos with
    | None -> Edge_map.empty
    | Some pos ->
        let ivs =
          List.map (fun (u, v) -> (min pos.(u) pos.(v), max pos.(u) pos.(v), (u, v))) nonpath_edges
        in
        List.fold_left
          (fun acc (l1, r1, k1) ->
            List.fold_left
              (fun acc (l2, r2, k2) ->
                if l1 < l2 && l2 < r1 && r1 < r2 then Edge_map.add k1 () (Edge_map.add k2 () acc)
                else acc)
              acc ivs)
          Edge_map.empty ivs
  in
  let orientation =
    (* claimed tail/head per non-path edge *)
    List.fold_left
      (fun acc ((u, v) as e) ->
        let tail, head =
          match pos with
          | None -> (u, v)
          | Some pos ->
              let t, h = if pos.(u) < pos.(v) then (u, v) else (v, u) in
              if prover = Flip_orientation && Edge_map.mem e crossing_keys then (h, t) else (t, h)
        in
        Edge_map.add e (tail, head) acc)
      Edge_map.empty nonpath_edges
  in
  (* has-left / has-right bits per node *)
  let has_left = Array.make n false and has_right = Array.make n false in
  Edge_map.iter
    (fun _ (tail, head) ->
      has_right.(tail) <- true;
      has_left.(head) <- true)
    orientation;
  (* marks: true longests w.r.t. claimed intervals *)
  let claimed_intervals =
    match pos with
    | None -> []
    | Some pos ->
        List.map
          (fun (((_, _)) as e) ->
            let tail, head = Edge_map.find e orientation in
            (min pos.(tail) pos.(head), max pos.(tail) pos.(head), e))
          nonpath_edges
  in
  let best_right, best_left = longest_marks ~n claimed_intervals in
  let marked_tail_longest e =
    match (pos, Edge_map.find_opt e orientation) with
    | Some pos, Some (tail, head) ->
        let l = min pos.(tail) pos.(head) in
        (match best_right.(l) with Some (_, k) -> k = e | None -> false)
    | _ -> false
  and marked_head_longest e =
    match (pos, Edge_map.find_opt e orientation) with
    | Some pos, Some (tail, head) ->
        let r = max pos.(tail) pos.(head) in
        (match best_left.(r) with Some (_, k) -> k = e | None -> false)
    | _ -> false
  in
  (* Round-1 labels: forest encoding + has bits (nodes); orientation bit +
     two mark bits per edge, homed via the Lemma 2.4 simulation. *)
  let r1_edge_bits e =
    let u, _ = e in
    let tail, _ = try Edge_map.find e orientation with Not_found -> (u, u) in
    Bits_flat.Enc.reset lenc;
    Bits_flat.Enc.bool lenc (is_path_edge (fst e) (snd e));
    Bits_flat.Enc.bool lenc (tail = fst e);
    Bits_flat.Enc.bool lenc (marked_tail_longest e);
    Bits_flat.Enc.bool lenc (marked_head_longest e);
    Bits_flat.Enc.to_bits lenc
  in
  let r1_edge_assignment = Edge_labels.assign el ~width:4 r1_edge_bits in
  let el_setup = Edge_labels.setup_labels el in
  let r1_node v =
    Bits_flat.Enc.reset lenc;
    Bits_flat.Enc.bits lenc (Forest_encoding.to_bits ~cbits enc.(v));
    Bits_flat.Enc.bool lenc has_left.(v);
    Bits_flat.Enc.bool lenc has_right.(v);
    Bits_flat.Enc.bits lenc el_setup.(v);
    Bits_flat.Enc.bits lenc r1_edge_assignment.(v);
    Bits_flat.Enc.to_bits lenc
  in
  (* dipp-refine: width <= 20*loglog + 20 *)
  Dip.record_prover meter (Array.init n r1_node);

  (* -------- Round 2 (verifier): ST coins + name strings -------------- *)
  let reps = max 2 (nb / 2) in
  let st_coins = Spanning_tree_verify.draw_coins ~reps ~tag_bits:4 ~parent:claimed_parent (Rng.split_string rng "st") in
  let name_coins = Rng.split_string rng "name" in
  let names = Array.init n (fun v -> Bits.random (Rng.split name_coins v) nb) in
  let st_coin_bits = Spanning_tree_verify.coins_to_bits st_coins in
  Dip.record_verifier meter
    (Array.init n (fun v -> Bits.concat [ st_coin_bits.(v); names.(v) ]));

  (* -------- Round 3 (prover): ST response + succ/above/name labels --- *)
  let st_resp = Spanning_tree_verify.honest_response ~reps ~parent:claimed_parent st_coins in
  let succ_of, above_pos =
    match pos with
    | Some _ -> sweep ~n claimed_intervals
    | None -> (Hashtbl.create 1, Array.make n None)
  in
  let name_of e =
    let tail, head = Edge_map.find e orientation in
    (names.(tail), names.(head))
  in
  let above_of_node v =
    match pos with
    | None -> None
    | Some pos -> Option.map name_of above_pos.(pos.(v))
  in
  let edge_info =
    List.fold_left
      (fun acc e ->
        let tail, head = Edge_map.find e orientation in
        let succ =
          match Hashtbl.find_opt succ_of e with Some (Some k) -> Some (name_of k) | _ -> None
        in
        let m_tail = marked_tail_longest e and m_head = marked_head_longest e in
        Edge_map.add e { tail; head; m_tail; m_head; name = name_of e; succ } acc)
      Edge_map.empty nonpath_edges
  in
  let zero_pair_pad = Bits.of_string (String.make (2 * nb) '0') in
  let opt_pair = function
    | None ->
        Bits_flat.Enc.bool lenc false;
        Bits_flat.Enc.bits lenc zero_pair_pad
    | Some (a, b) ->
        Bits_flat.Enc.bool lenc true;
        Bits_flat.Enc.bits lenc a;
        Bits_flat.Enc.bits lenc b
  in
  let r3_edge_width = (2 * nb) + 1 + (2 * nb) in
  let r3_edge_bits e =
    match Edge_map.find_opt e edge_info with
    | Some d ->
        Bits_flat.Enc.reset lenc;
        Bits_flat.Enc.bits lenc (fst d.name);
        Bits_flat.Enc.bits lenc (snd d.name);
        opt_pair d.succ;
        Bits_flat.Enc.to_bits lenc
    | None -> Bits.of_string (String.make r3_edge_width '0')
  in
  let r3_edges = Edge_labels.assign el ~width:r3_edge_width r3_edge_bits in
  let st_resp_bits = Spanning_tree_verify.response_to_bits st_resp in
  let r3_node v =
    Bits_flat.Enc.reset lenc;
    Bits_flat.Enc.bits lenc st_resp_bits.(v);
    opt_pair (above_of_node v);
    Bits_flat.Enc.bits lenc r3_edges.(v);
    Bits_flat.Enc.to_bits lenc
  in
  (* dipp-refine: width <= 40*loglog + 40 *)
  Dip.record_prover meter (Array.init n r3_node);

  (* -------- LR-sorting sub-protocol (rounds 1-5, parallel) ----------- *)
  let lr_result =
    match claimed_path with
    | None -> None
    | Some p ->
        let arcs = List.map (fun e -> Edge_map.find e orientation) nonpath_edges in
        let lr_inst = { Lr_sorting.n; path = Array.of_list p; arcs } in
        Some (Lr_sorting.run ~seed:(Rng.derive seed "lr") ~c ~codec ~prover:Lr_sorting.Honest lr_inst)
  in

  (* -------- Verification --------------------------------------------- *)
  let st_heard = Dip.heard_all st_resp in
  let pair_eq a b =
    match (a, b) with
    | None, None -> true
    | Some (x, y), Some (x', y') -> Bits.equal x x' && Bits.equal y y'
    | _ -> false
  in
  let above_label = Array.init n above_of_node in
  let verify v =
    let ok = ref true in
    let fail () = ok := false in
    (* path-shape checks on the committed structure *)
    let own_enc = enc.(v) in
    let nbr_encs = Array.to_list (Array.map (fun u -> (u, enc.(u))) (Graph.neighbors g v)) in
    if not (Forest_encoding.locally_wellformed ~own:own_enc ~nbrs:nbr_encs) then fail ();
    if List.length children.(v) > 1 then fail ();
    (* spanning-tree verification *)
    if
      not
        (Spanning_tree_verify.verify_node ~parent:claimed_parent ~children ~graph:g
           ~coins:st_coins ~own:st_resp.(v) ~heard:st_heard v)
    then fail ();
    (* incident non-path edges, classified by claimed orientation *)
    let incident =
      List.filter_map
        (fun u ->
          let e = Graph.normalize_edge u v in
          Edge_map.find_opt e edge_info)
        (Array.to_list (Graph.neighbors g v))
    in
    let rights = List.filter (fun d -> d.tail = v) incident in
    let lefts = List.filter (fun d -> d.head = v) incident in
    (* has-bits are self-checked *)
    if has_right.(v) <> not (List.is_empty rights) then fail ();
    if has_left.(v) <> not (List.is_empty lefts) then fail ();
    (* own name component *)
    List.iter (fun d -> if not (Bits.equal (fst d.name) names.(v)) then fail ()) rights;
    List.iter (fun d -> if not (Bits.equal (snd d.name) names.(v)) then fail ()) lefts;
    (* marks: exactly one longest per non-empty side; duality *)
    if (not (List.is_empty rights)) && List.length (List.filter (fun d -> d.m_tail) rights) <> 1 then fail ();
    if (not (List.is_empty lefts)) && List.length (List.filter (fun d -> d.m_head) lefts) <> 1 then fail ();
    List.iter (fun d -> if (not d.m_tail) && not d.m_head then fail ()) incident;
    (* successor chains per side; the chain ends at the longest-marked edge
       whose successor equals above(v) (condition 3) *)
    let chain edges ~start ~is_last =
      (* does some ordering of [edges] satisfy: first name = start (if
         pinned), succ(e_i) = name(e_{i+1}), last satisfies [is_last] and
         succ(last) = above(v)? *)
      let rec go required remaining =
        match remaining with
        | [] -> true
        | _ ->
            List.exists
              (fun d ->
                let name_ok = match required with None -> true | Some nm -> pair_eq (Some d.name) (Some nm) in
                name_ok
                &&
                let rest = List.filter (fun d' -> d' != d) remaining in
                if List.is_empty rest then is_last d && pair_eq d.succ above_label.(v)
                else (not (is_last d)) && (match d.succ with Some s -> go (Some s) rest | None -> false))
              remaining
      in
      List.is_empty edges || go start edges
    in
    let right_nbr = match children.(v) with [ c ] -> Some c | _ -> None in
    let left_nbr = if claimed_parent.(v) >= 0 then Some claimed_parent.(v) else None in
    let start_right =
      match right_nbr with
      | Some u -> ( match above_label.(u) with Some nm -> Some (Some nm) | None -> Some None)
      | None -> None
    in
    let start_left =
      match left_nbr with
      | Some u -> ( match above_label.(u) with Some nm -> Some (Some nm) | None -> Some None)
      | None -> None
    in
    (* conditions (4)/(5) with the has-bit gating *)
    (match (right_nbr, rights) with
    | Some u, _ :: _ ->
        if has_left.(u) then fail () (* would cross *)
        else begin
          (* chain start pinned to above(u) *)
          match start_right with
          | Some (Some nm) -> if not (chain rights ~start:(Some nm) ~is_last:(fun d -> d.m_tail)) then fail ()
          | Some None | None -> fail () (* above(u) = bottom but v has right edges *)
        end
    | Some u, [] ->
        if not has_left.(u) then
          if not (pair_eq above_label.(v) above_label.(u)) then fail ()
    | None, _ :: _ ->
        (* no right neighbour: chain unpinned at the start *)
        if not (chain rights ~start:None ~is_last:(fun d -> d.m_tail)) then fail ()
    | None, [] -> ());
    (match (left_nbr, lefts) with
    | Some u, _ :: _ ->
        if has_right.(u) then fail ()
        else begin
          match start_left with
          | Some (Some nm) -> if not (chain lefts ~start:(Some nm) ~is_last:(fun d -> d.m_head)) then fail ()
          | Some None | None -> fail ()
        end
    | Some _, [] -> () (* covered by the right-neighbour rule at u *)
    | None, _ :: _ -> if not (chain lefts ~start:None ~is_last:(fun d -> d.m_head)) then fail ()
    | None, [] -> ());
    !ok
  in
  let structural = Dip.all_accept ~n verify in
  let lr_ok = match lr_result with None -> true | Some r -> r.Lr_sorting.verdict.Dip.accepted in
  let verdict =
    {
      Dip.accepted = structural.Dip.accepted && lr_ok;
      rejecting =
        structural.Dip.rejecting
        @ (match lr_result with Some r when not lr_ok -> r.Lr_sorting.verdict.Dip.rejecting | _ -> []);
    }
  in
  let stats =
    match lr_result with
    | Some r -> Dip.merge_parallel [ Dip.stats meter; r.Lr_sorting.stats ]
    | None -> Dip.stats meter
  in
  { verdict; stats; lr = lr_result; transcript = Dip.transcript meter }
