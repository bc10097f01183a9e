type instance = { graph : Graph.t; witness : int list }

type result = { verdict : Dip.verdict; stats : Dip.stats }

(* Position bits: ceil(log2 n), and at least one so a one-node path still
   writes a label. *)
let full_width n = max 1 (Ilog.ceil_log2 n)

(* One-round deterministic PLS for path-outerplanarity (FFM+21 shape).
   Labels: the node's position on P, two has-left/has-right bits, and the
   endpoints of the first edge drawn strictly above the node.  The verifier
   anchors positions at the left end, forces them exact along the path, and
   checks the nesting conditions:
     3. above(v) strictly spans pos(v);
     4. above(v) contains the longest right edge (the successor rule);
     5. above(v) contains the longest left edge;
     6. above(right neighbor) = shortest right edge;
     7. above(left neighbor) = shortest left edge;
     8. above propagates across edge-free gaps;
     9. a right edge at v cannot coexist with a left edge at v's right
        neighbor (they would cross).
   At full width the scheme is deterministic-sound; with truncated labels
   (positions mod 2^label_bits) the Theorem 1.8 experiment exhibits fooling
   instances once 2^label_bits < n. *)
let run ?label_bits inst =
  let g = inst.graph in
  let n = Graph.n g in
  (* dipp-refine: value <= log + 1 *)
  let width = match label_bits with Some w -> w | None -> full_width n in
  let m = 1 lsl width in
  let meter = Dip.meter () in
  let pos = Array.make n (-1) in
  List.iteri (fun i v -> pos.(v) <- i) inst.witness;
  let path_arr = Array.of_list inst.witness in
  let lbl v = pos.(v) mod m in
  (* honest above: innermost interval strictly spanning each position *)
  let intervals =
    Graph.fold_edges
      (fun (u, v) acc ->
        let l = min pos.(u) pos.(v) and r = max pos.(u) pos.(v) in
        if r - l >= 2 then (l, r) :: acc else acc)
      g []
  in
  let above = Array.make n None in
  List.iter
    (fun (l, r) ->
      for p = l + 1 to r - 1 do
        match above.(p) with
        | Some (l', r') when l >= l' && r <= r' -> above.(p) <- Some (l, r)
        | Some _ -> ()
        | None -> above.(p) <- Some (l, r)
      done)
    intervals;
  let has_left = Array.make n false and has_right = Array.make n false in
  List.iter
    (fun (l, r) ->
      has_right.(path_arr.(l)) <- true;
      has_left.(path_arr.(r)) <- true)
    intervals;
  let above_lbl v = Option.map (fun (l, r) -> (l mod m, r mod m)) above.(pos.(v)) in
  Dip.record_prover meter
    (Array.init n (fun v ->
         let w = Bits.Writer.create () in
         Bits.Writer.int w ~width (lbl v);
         Bits.Writer.bool w has_left.(v);
         Bits.Writer.bool w has_right.(v);
         (match above_lbl v with
         | Some (a, b) ->
             Bits.Writer.bool w true;
             Bits.Writer.int w ~width a;
             Bits.Writer.int w ~width b
         | None ->
             Bits.Writer.bool w false;
             Bits.Writer.int w ~width 0;
             Bits.Writer.int w ~width 0);
         Bits.Writer.contents w));
  let verify v =
    let ok = ref true in
    let fail () = ok := false in
    let p = pos.(v) in
    let my = lbl v in
    if p = 0 && my <> 0 then fail ();
    if p > 0 && lbl path_arr.(p - 1) <> (my - 1 + m) mod m then fail ();
    if p < n - 1 && lbl path_arr.(p + 1) <> (my + 1) mod m then fail ();
    (* incident non-path intervals, in label space *)
    let edges =
      List.filter_map
        (fun u -> if abs (pos.(u) - p) <= 1 then None else Some (lbl u))
        (Array.to_list (Graph.neighbors g v))
    in
    let rights = List.sort Int.compare (List.filter (fun x -> x > my) edges) in
    let lefts = List.sort Int.compare (List.filter (fun x -> x < my) edges) in
    (* equal labels (possible when truncated): treated as inconsistent *)
    if List.exists (fun x -> x = my) edges then fail ();
    if has_right.(v) <> not (List.is_empty rights) then fail ();
    if has_left.(v) <> not (List.is_empty lefts) then fail ();
    let ab = above_lbl v in
    (* 3: strict span *)
    (match ab with Some (x, y) -> if not (x < my && my < y) then fail () | None -> ());
    (* 4/5: contain the longest edges *)
    (match (ab, List.rev rights) with
    | Some (_, y), b :: _ -> if y < b then fail ()
    | None, _ :: _ -> () (* outermost *)
    | _ -> ());
    (match (ab, lefts) with
    | Some (x, _), a :: _ -> if x > a then fail ()
    | _ -> ());
    (* 6/7: shortest edges pin the neighbors' above *)
    (if p < n - 1 then
       let u = path_arr.(p + 1) in
       match rights with
       | b :: _ ->
           if has_left.(u) then fail () (* 9 *)
           else if above_lbl u <> Some (my, b) then fail ()
       | [] -> if (not has_left.(u)) && above_lbl u <> ab then fail () (* 8 *));
    (if p > 0 then
       let u = path_arr.(p - 1) in
       match List.rev lefts with
       | a :: _ -> if above_lbl u <> Some (a, my) then fail ()
       | [] -> ());
    !ok
  in
  { verdict = Dip.all_accept ~n verify; stats = Dip.stats meter }
