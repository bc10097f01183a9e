(* The left-right planarity test (de Fraysseix–Rosenstiehl's criterion, in
   Brandes' linear-time formulation): orient the graph by a DFS, test the
   left-right constraints of the back edges with a stack of conflict pairs,
   then read the embedding off the sides the test assigned.

   Darts: node v owns the darts [off.(v) .. off.(v + 1) - 1], dart d runs to
   [tgt.(d)], its reverse is [twin.(d)].  An edge is oriented by marking one
   of its darts [out]; every per-edge quantity below is indexed by that dart,
   and -1 stands for "no edge". *)

let embed g =
  let n = Graph.n g and m = Graph.m g in
  if n >= 3 && m > (3 * n) - 6 then None
  else begin
    let off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v) + Graph.degree g v
    done;
    let nd = off.(n) in
    let tgt = Array.make nd 0 and twin = Array.make nd 0 in
    for v = 0 to n - 1 do
      Array.iteri
        (fun i w ->
          tgt.(off.(v) + i) <- w;
          twin.(off.(v) + i) <- off.(w) + Graph.neighbor_slot g w v)
        (Graph.neighbors g v)
    done;
    (* Phase 1, orientation: heights, the two lowest return points of every
       edge, and the nesting depth that orders each node's outgoing edges. *)
    let height = Array.make n max_int and parent = Array.make n (-1) in
    let out = Array.make nd false in
    let lowpt = Array.make nd 0 and lowpt2 = Array.make nd 0 and nest = Array.make nd 0 in
    let rec orient v =
      let e = parent.(v) in
      for d = off.(v) to off.(v + 1) - 1 do
        if not (out.(d) || out.(twin.(d))) then begin
          let w = tgt.(d) in
          out.(d) <- true;
          lowpt.(d) <- height.(v);
          lowpt2.(d) <- height.(v);
          if height.(w) = max_int then begin
            parent.(w) <- d;
            height.(w) <- height.(v) + 1;
            orient w
          end
          else lowpt.(d) <- height.(w);
          nest.(d) <- (2 * lowpt.(d)) + if lowpt2.(d) < height.(v) then 1 else 0;
          if e >= 0 then
            if lowpt.(d) < lowpt.(e) then begin
              lowpt2.(e) <- min lowpt.(e) lowpt2.(d);
              lowpt.(e) <- lowpt.(d)
            end
            else if lowpt.(d) > lowpt.(e) then lowpt2.(e) <- min lowpt2.(e) lowpt.(d)
            else lowpt2.(e) <- min lowpt2.(e) lowpt2.(d)
        end
      done
    in
    (* One DFS tree per connected component, rooted at its smallest node:
       the roots are the nodes left without a parent. *)
    for v = 0 to n - 1 do
      if height.(v) = max_int then begin
        height.(v) <- 0;
        orient v
      end
    done;
    let each_root f = for v = 0 to n - 1 do if parent.(v) < 0 then f v done in
    let ordered () =
      Array.init n (fun v ->
          let darts = List.init (off.(v + 1) - off.(v)) (( + ) off.(v)) in
          let a = Array.of_list (List.filter (fun d -> out.(d)) darts) in
          Array.stable_sort (fun x y -> Int.compare nest.(x) nest.(y)) a;
          a)
    in
    (* Phase 2, testing.  A conflict pair is two intervals of return edges,
       each given by its lowest and highest edge; the pairs sit on a stack of
       four parallel arrays, and [bottom.(d)] records its height when edge d
       was entered. *)
    let order = ordered () in
    let reff = Array.make nd (-1) and side = Array.make nd 1 in
    let lowpt_edge = Array.make nd (-1) and bottom = Array.make nd 0 in
    let cap = (nd / 2) + 1 in
    let ll = Array.make cap (-1) and lh = Array.make cap (-1) in
    let rl = Array.make cap (-1) and rh = Array.make cap (-1) in
    let sp = ref 0 in
    let push l_lo l_hi r_lo r_hi =
      ll.(!sp) <- l_lo;
      lh.(!sp) <- l_hi;
      rl.(!sp) <- r_lo;
      rh.(!sp) <- r_hi;
      incr sp
    in
    let empty lo hi = lo < 0 && hi < 0 in
    let lowest p =
      if empty ll.(p) lh.(p) then lowpt.(rl.(p))
      else if empty rl.(p) rh.(p) then lowpt.(ll.(p))
      else min lowpt.(ll.(p)) lowpt.(rl.(p))
    in
    let conflicting hi b = hi >= 0 && lowpt.(hi) > lowpt.(b) in
    let set_ref d x = if d >= 0 then reff.(d) <- x in
    let exception Nonplanar in
    let add_constraints ei e =
      let pl_lo = ref (-1) and pl_hi = ref (-1) and pr_lo = ref (-1) and pr_hi = ref (-1) in
      (* Merge the return edges of ei into P's right interval. *)
      let continue = ref true in
      while !continue do
        decr sp;
        let p = !sp in
        let left = not (empty ll.(p) lh.(p)) in
        if left && not (empty rl.(p) rh.(p)) then raise Nonplanar;
        let q_lo, q_hi = if left then (ll.(p), lh.(p)) else (rl.(p), rh.(p)) in
        if lowpt.(q_lo) > lowpt.(e) then begin
          if empty !pr_lo !pr_hi then pr_hi := q_hi else set_ref !pr_lo q_hi;
          pr_lo := q_lo
        end
        else set_ref q_lo lowpt_edge.(e);
        continue := !sp <> bottom.(ei)
      done;
      (* Merge the earlier siblings' return edges that conflict with ei into
         P's left interval. *)
      while !sp > 0 && (conflicting lh.(!sp - 1) ei || conflicting rh.(!sp - 1) ei) do
        decr sp;
        let p = !sp in
        let swap = conflicting rh.(p) ei in
        let q_llo, q_lhi, q_rlo, q_rhi =
          if swap then (rl.(p), rh.(p), ll.(p), lh.(p)) else (ll.(p), lh.(p), rl.(p), rh.(p))
        in
        if conflicting q_rhi ei then raise Nonplanar;
        set_ref !pr_lo q_rhi;
        if q_rlo >= 0 then pr_lo := q_rlo;
        if empty !pl_lo !pl_hi then pl_hi := q_lhi else set_ref !pl_lo q_lhi;
        pl_lo := q_llo
      done;
      if not (empty !pl_lo !pl_hi && empty !pr_lo !pr_hi) then push !pl_lo !pl_hi !pr_lo !pr_hi
    in
    (* Drop the return edges into u from the top of one side of pair p; a
       side left empty hands its lowest edge over to the other side. *)
    let trim u lo hi other p =
      while hi.(p) >= 0 && tgt.(hi.(p)) = u do
        hi.(p) <- reff.(hi.(p))
      done;
      if hi.(p) < 0 && lo.(p) >= 0 then begin
        reff.(lo.(p)) <- other.(p);
        side.(lo.(p)) <- -1;
        lo.(p) <- -1
      end
    in
    let remove_back_edges e =
      let u = tgt.(twin.(e)) in
      (* Drop the pairs whose edges all return to u, then trim the next. *)
      while !sp > 0 && lowest (!sp - 1) = height.(u) do
        decr sp;
        if ll.(!sp) >= 0 then side.(ll.(!sp)) <- -1
      done;
      if !sp > 0 then begin
        trim u ll lh rl (!sp - 1);
        trim u rl rh ll (!sp - 1)
      end;
      (* e takes the side of its highest return edge. *)
      if lowpt.(e) < height.(u) then begin
        let hl = lh.(!sp - 1) and hr = rh.(!sp - 1) in
        reff.(e) <- (if hl >= 0 && (hr < 0 || lowpt.(hl) > lowpt.(hr)) then hl else hr)
      end
    in
    let rec test v =
      let e = parent.(v) in
      Array.iteri
        (fun i ei ->
          bottom.(ei) <- !sp;
          if parent.(tgt.(ei)) = ei then test tgt.(ei)
          else begin
            lowpt_edge.(ei) <- ei;
            push (-1) (-1) ei ei
          end;
          if lowpt.(ei) < height.(v) then
            if i = 0 then lowpt_edge.(e) <- lowpt_edge.(ei) else add_constraints ei e)
        order.(v);
      if e >= 0 then remove_back_edges e
    in
    match each_root test with
    | exception Nonplanar -> None
    | () ->
        (* Phase 3, embedding: resolve every side against its reference
           chain, re-sort the outgoing edges by signed nesting depth, and
           thread each node's darts into a cyclic [cw]/[ccw] list. *)
        let rec sign d =
          if reff.(d) >= 0 then begin
            side.(d) <- side.(d) * sign reff.(d);
            reff.(d) <- -1
          end;
          side.(d)
        in
        for d = 0 to nd - 1 do
          if out.(d) then nest.(d) <- sign d * nest.(d)
        done;
        let order = ordered () in
        let cw = Array.make nd (-1) and ccw = Array.make nd (-1) and first = Array.make n (-1) in
        let link_after a d =
          let b = cw.(a) in
          cw.(a) <- d;
          ccw.(d) <- a;
          cw.(d) <- b;
          ccw.(b) <- d
        in
        let add_before v r d =
          if r < 0 then begin
            cw.(d) <- d;
            ccw.(d) <- d
          end
          else link_after ccw.(r) d;
          if first.(v) = r then first.(v) <- d
        in
        Array.iteri
          (fun v a -> Array.iteri (fun i d -> if i = 0 then add_before v (-1) d else link_after a.(i - 1) d) a)
          order;
        let left_ref = Array.make n (-1) and right_ref = Array.make n (-1) in
        let rec place v =
          Array.iter
            (fun d ->
              let w = tgt.(d) and t = twin.(d) in
              if parent.(w) = d then begin
                add_before w first.(w) t;
                left_ref.(v) <- d;
                right_ref.(v) <- d;
                place w
              end
              else if side.(d) = 1 then link_after right_ref.(w) t
              else begin
                add_before w left_ref.(w) t;
                left_ref.(w) <- t
              end)
            order.(v)
        in
        each_root place;
        let rot =
          Array.init n (fun v ->
              let d = ref off.(v) in
              Array.init (off.(v + 1) - off.(v)) (fun _ ->
                  let w = tgt.(!d) in
                  d := cw.(!d);
                  w))
        in
        Some (Rotation.create g rot)
  end

let is_planar g = Option.is_some (embed g)
