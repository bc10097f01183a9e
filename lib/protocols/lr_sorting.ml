type instance = {
  n : int;
  path : int array;
  arcs : (int * int) list;
}

let validate_instance inst =
  let n = inst.n in
  if Array.length inst.path <> n then invalid_arg "Lr_sorting: path length";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then invalid_arg "Lr_sorting: path not a permutation";
      seen.(v) <- true)
    inst.path;
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) inst.path;
  List.iter
    (fun (u, v) ->
      if u < 0 || v < 0 || u >= n || v >= n || u = v then invalid_arg "Lr_sorting: bad arc";
      if abs (pos.(u) - pos.(v)) = 1 then invalid_arg "Lr_sorting: arc duplicates a path edge")
    inst.arcs

let positions inst =
  let pos = Array.make inst.n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) inst.path;
  pos

let is_yes_instance inst =
  let pos = positions inst in
  List.for_all (fun (u, v) -> pos.(u) < pos.(v)) inst.arcs

let underlying_graph inst =
  let path_edges = List.init (inst.n - 1) (fun i -> (inst.path.(i), inst.path.(i + 1))) in
  Graph.create ~n:inst.n (path_edges @ List.map (fun (u, v) -> Graph.normalize_edge u v) inst.arcs)

module Params = struct
  type t = { n : int; block : int; nblocks : int; p : Fp.t; p2 : Fp.t }

  (* [block] is the position width: ceil(log2 n) bits (Ilog.ceil_log2,
     which is 0 at n = 1), raised to min n 2; [nblocks] = n / block; [p]
     and [p2] are the smallest primes above max 64 block^c and
     2 block^2 p, the fields of the two fingerprints. *)
  let make ?(c = 3) ?block n =
    if n < 1 then invalid_arg "Lr_sorting.Params.make";
    (* block >= 2 keeps x2 = pos + 1 representable when nblocks hits 2^block
       (only for n = 2); a one-node path's block holds one bit, x2 = 1.  The
       ?block override is for the block-size ablation (a larger block needs
       wider index fields, a smaller one cannot hold the position bits) *)
    let block =
      match block with
      | None -> max (min n 2) (Ilog.ceil_log2 n)
      | Some b ->
          if b < Ilog.ceil_log2 n then invalid_arg "Lr_sorting.Params.make: block too small for position bits";
          max (min n 2) b
    in
    let nblocks = max 1 (n / block) in
    let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
    let p = Fp.create (Prime.next_prime (max 64 (pow block c))) in
    let p2 = Fp.create (Prime.next_prime (2 * block * block * p.Fp.p)) in
    { n; block; nblocks; p; p2 }
end

(* Positions are encoded MSB-first on [block] bits; blocks can be wider
   than the native int (block-size ablation), so shifts are guarded. *)
let shift_right_safe x k = if k >= 62 then 0 else x lsr k

(* ------------------------------------------------------------------ *)
(* Layout: which node sits where.                                      *)
(* ------------------------------------------------------------------ *)

module Layout = struct
  type t = {
    params : Params.t;
    pos : int array;  (* node -> path position *)
    blk : int array;  (* node -> block id *)
    idx : int array;  (* node -> 1-based index within its block *)
  }

  let make params inst =
    let pos = positions inst in
    let bsize = params.Params.block and nb = params.Params.nblocks in
    let blk = Array.map (fun p -> min (p / bsize) (nb - 1)) pos in
    let idx = Array.make inst.n 0 in
    Array.iteri (fun v p -> idx.(v) <- p - (blk.(v) * bsize) + 1) pos;
    { params; pos; blk; idx }

  (* bit j (1-based, MSB first) of a B-bit value *)
  let bit_at t x j = shift_right_safe x (t.params.Params.block - j) land 1 = 1
end

(* ------------------------------------------------------------------ *)
(* Labels.                                                             *)
(* ------------------------------------------------------------------ *)

type vb_flag = Left_of | At_vb | Right_of

type r1_node = { j : int; bit1 : bool; bit2 : bool; flag : vb_flag; m_head : int; m_tail : int }
type r1_arc = Inner | Outer of { i : int }
type r3_node = {
  r_e : int;
  rp_e : int;
  rb_e : int;
  pre1 : int;
  pre2 : int;
  f1 : int;
  f2 : int;
  prep : int;  (* phi^b_idx(r') prefix for the commitment scheme *)
}
type r3_arc = { jval : int }
type r5_node = { z_e : int; ph1 : int; ph2 : int; pt1 : int; pt2 : int }

type coins2 = { r : int option; rp : int option; rb : int option }
(* per node: leftmost path node carries r and rp; block leaders carry rb *)

type coins4 = { z : int option }

(* Serialization widths: the bits that hold every value in [0, x], at
   least one, so a field whose values are all zero still takes a bit in
   every label. *)
let bits_for x = max 1 (Ilog.ceil_log2 (x + 1))

let flag_code = function Left_of -> 0 | At_vb -> 1 | Right_of -> 2

(* Each label's one serializer, written against the label cursor; the
   codec only picks the cursor's backend. *)

let r1_node_bits codec (pa : Params.t) l =
  (* block = Theta(log n): a block index fits in loglog n + O(1) bits *)
  (* dipp-refine: value <= loglog + 2 *)
  let wi = bits_for (2 * pa.Params.block) and wm = bits_for ((2 * pa.Params.block) + 1) in
  let e = Bits_flat.Enc.create codec (wi + 4 + (2 * wm)) in
  Bits_flat.Enc.int e ~width:wi l.j;
  Bits_flat.Enc.bool e l.bit1;
  Bits_flat.Enc.bool e l.bit2;
  Bits_flat.Enc.int e ~width:2 (flag_code l.flag);
  Bits_flat.Enc.int e ~width:wm l.m_head;
  Bits_flat.Enc.int e ~width:wm l.m_tail;
  Bits_flat.Enc.to_bits e

let r1_arc_bits codec (pa : Params.t) l =
  (* dipp-refine: value <= loglog + 2 *)
  let wi = bits_for (pa.Params.block + 1) in
  let e = Bits_flat.Enc.create codec (wi + 1) in
  (match l with
  | Inner ->
      Bits_flat.Enc.bool e false;
      Bits_flat.Enc.int e ~width:wi 0
  | Outer { i } ->
      Bits_flat.Enc.bool e true;
      Bits_flat.Enc.int e ~width:wi i);
  Bits_flat.Enc.to_bits e

let r3_node_bits codec (pa : Params.t) l =
  (* p = poly(block) = polylog(n): a field element fits in O(loglog n) bits *)
  (* dipp-refine: value <= 3*loglog + 6 *)
  let wp = Fp.bit_width pa.Params.p in
  let e = Bits_flat.Enc.create codec (8 * wp) in
  Bits_flat.Enc.int e ~width:wp l.r_e;
  Bits_flat.Enc.int e ~width:wp l.rp_e;
  Bits_flat.Enc.int e ~width:wp l.rb_e;
  Bits_flat.Enc.int e ~width:wp l.pre1;
  Bits_flat.Enc.int e ~width:wp l.pre2;
  Bits_flat.Enc.int e ~width:wp l.f1;
  Bits_flat.Enc.int e ~width:wp l.f2;
  Bits_flat.Enc.int e ~width:wp l.prep;
  Bits_flat.Enc.to_bits e

let r5_node_bits codec (pa : Params.t) l =
  (* dipp-refine: value <= 5*loglog + 12 *)
  let wq = Fp.bit_width pa.Params.p2 in
  let e = Bits_flat.Enc.create codec (5 * wq) in
  Bits_flat.Enc.int e ~width:wq l.z_e;
  Bits_flat.Enc.int e ~width:wq l.ph1;
  Bits_flat.Enc.int e ~width:wq l.ph2;
  Bits_flat.Enc.int e ~width:wq l.pt1;
  Bits_flat.Enc.int e ~width:wq l.pt2;
  Bits_flat.Enc.to_bits e

(* ------------------------------------------------------------------ *)
(* Prover plans.                                                       *)
(* ------------------------------------------------------------------ *)

type prover = Honest | Forge_pairs | Shift_positions | Fake_inner

type arc_decision = D_inner | D_outer of { i : int; j_from_tail : bool }

type plan = {
  claimed_x1 : int array;  (* per block *)
  decide : (int * int) -> arc_decision;
}

(* Most significant-first distinguishing index of x < y (B-bit): the first
   bit position where they differ (then x has 0, y has 1). *)
let distinguishing (pa : Params.t) x y =
  let b = pa.Params.block in
  let rec go j =
    if j > b then None
    else
      let bx = shift_right_safe x (b - j) land 1 and by = shift_right_safe y (b - j) land 1 in
      if bx <> by then Some j else go (j + 1)
  in
  go 1

let honest_plan (pa : Params.t) (lay : Layout.t) _inst =
  let claimed_x1 = Array.init pa.Params.nblocks Fun.id in
  let decide (u, v) =
    if lay.Layout.blk.(u) = lay.Layout.blk.(v) then D_inner
    else
      match distinguishing pa claimed_x1.(lay.Layout.blk.(u)) claimed_x1.(lay.Layout.blk.(v)) with
      | Some i -> D_outer { i; j_from_tail = true }
      | None -> D_outer { i = 1; j_from_tail = true }
  in
  { claimed_x1; decide }

(* For a backward arc: the best forged commitment — an index where the tail
   block's bit is 0 and ideally the head block's bit is 1. *)
let forged_index (pa : Params.t) xu xv =
  let b = pa.Params.block in
  let bit x j = shift_right_safe x (b - j) land 1 in
  let rec scan pred j = if j > b then None else if pred j then Some j else scan pred (j + 1) in
  match scan (fun j -> bit xu j = 0 && bit xv j = 1) 1 with
  | Some i -> i
  | None -> ( match scan (fun j -> bit xu j = 0) 1 with Some i -> i | None -> 1)

let forge_plan (pa : Params.t) (lay : Layout.t) inst =
  let claimed_x1 = Array.init pa.Params.nblocks Fun.id in
  let pos = lay.Layout.pos in
  let decide (u, v) =
    let bu = lay.Layout.blk.(u) and bv = lay.Layout.blk.(v) in
    if pos.(u) < pos.(v) && bu = bv then D_inner
    else if pos.(u) < pos.(v) then
      match distinguishing pa claimed_x1.(bu) claimed_x1.(bv) with
      | Some i -> D_outer { i; j_from_tail = true }
      | None -> D_outer { i = 1; j_from_tail = true }
    else
      (* backward arc: forge *)
      D_outer { i = forged_index pa claimed_x1.(bu) claimed_x1.(bv); j_from_tail = true }
  in
  ignore inst;
  { claimed_x1; decide }

let shift_plan (pa : Params.t) (lay : Layout.t) inst =
  let pos = lay.Layout.pos in
  let claimed_x1 = Array.init pa.Params.nblocks Fun.id in
  (* Renumber the head block of the first backward cross-block arc so that
     the arc becomes consistent with the claims. *)
  (match List.find_opt (fun (u, v) -> pos.(u) > pos.(v) && lay.Layout.blk.(u) <> lay.Layout.blk.(v)) inst.arcs with
  | Some (u, v) -> claimed_x1.(lay.Layout.blk.(v)) <- claimed_x1.(lay.Layout.blk.(u)) + 1
  | None -> ());
  let decide (u, v) =
    let bu = lay.Layout.blk.(u) and bv = lay.Layout.blk.(v) in
    if bu = bv then
      if lay.Layout.idx.(u) < lay.Layout.idx.(v) then D_inner
      else D_outer { i = forged_index pa claimed_x1.(bu) claimed_x1.(bv); j_from_tail = true }
    else if claimed_x1.(bu) < claimed_x1.(bv) then
      match distinguishing pa claimed_x1.(bu) claimed_x1.(bv) with
      | Some i -> D_outer { i; j_from_tail = true }
      | None -> D_outer { i = 1; j_from_tail = true }
    else D_outer { i = forged_index pa claimed_x1.(bu) claimed_x1.(bv); j_from_tail = true }
  in
  { claimed_x1; decide }

let fake_inner_plan (pa : Params.t) (lay : Layout.t) _inst =
  let pos = lay.Layout.pos in
  let claimed_x1 = Array.init pa.Params.nblocks Fun.id in
  let decide (u, v) =
    let bu = lay.Layout.blk.(u) and bv = lay.Layout.blk.(v) in
    if pos.(u) < pos.(v) && bu = bv then D_inner
    else if pos.(u) < pos.(v) then
      match distinguishing pa claimed_x1.(bu) claimed_x1.(bv) with
      | Some i -> D_outer { i; j_from_tail = true }
      | None -> D_outer { i = 1; j_from_tail = true }
    else
      (* backward arc: claim it is inner-block and hope for a tag collision
         (or, inside one block, an index miracle) *)
      D_inner
  in
  { claimed_x1; decide }

let plan_for prover pa lay inst =
  match prover with
  | Honest -> honest_plan pa lay inst
  | Forge_pairs -> forge_plan pa lay inst
  | Shift_positions -> shift_plan pa lay inst
  | Fake_inner -> fake_inner_plan pa lay inst

(* ------------------------------------------------------------------ *)
(* The execution.                                                      *)
(* ------------------------------------------------------------------ *)

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  params : Params.t;
  transcript : (Dip.phase * Bits.t array) list;
}

let compare_pair (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

module Arc_map = Map.Make (struct
  type t = int * int

  let compare = compare_pair
end)

let prefix_upto (pa : Params.t) f x r i =
  (* phi of the multiset {k <= i : bit k of x is 1} evaluated at r over f *)
  let b = pa.Params.block in
  let acc = ref 1 in
  for k = 1 to min i b do
    if shift_right_safe x (b - k) land 1 = 1 then acc := Fp.mul f !acc (Fp.sub f k r)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The per-node decision function.                                     *)
(*                                                                     *)
(* Everything a node reads is its own and its path-neighbors' labels   *)
(* and coins — all present in the five recorded frames — so this is    *)
(* shared verbatim between the live run and transcript replay.         *)
(* ------------------------------------------------------------------ *)

let node_checks (pa : Params.t) inst ~(r1 : r1_node array) ~(r3 : r3_node array)
    ~(r5 : r5_node array) ~(coins2 : coins2 array) ~(coins4 : coins4 array) ~arc_r1 ~arc_r3 =
  let n = inst.n in
  let pos = positions inst in
  let bsize = pa.Params.block in
  let p = pa.Params.p and p2 = pa.Params.p2 in
  let enc (i, j) = ((i - 1) * p.Fp.p) + j in
  let dedupe pairs = List.sort_uniq compare_pair pairs in
  let arcs_into = Array.make n [] and arcs_from = Array.make n [] in
  List.iter
    (fun (u, v) ->
      arcs_into.(v) <- (u, v) :: arcs_into.(v);
      arcs_from.(u) <- (u, v) :: arcs_from.(u))
    inst.arcs;
  let left_nbr v = if pos.(v) = 0 then None else Some inst.path.(pos.(v) - 1) in
  let right_nbr v = if pos.(v) = n - 1 then None else Some inst.path.(pos.(v) + 1) in
  let same_block_left v =
    match left_nbr v with Some u when r1.(v).j = r1.(u).j + 1 -> Some u | _ -> None
  in
  let verify v =
    let own1 = r1.(v) and own3 = r3.(v) and own5 = r5.(v) in
    let ok = ref true in
    let fail () = ok := false in
    (* S: index structure *)
    (match left_nbr v with
    | None -> if own1.j <> 1 then fail ()
    | Some u ->
        let ju = r1.(u).j in
        if not (own1.j = ju + 1 || (own1.j = 1 && ju >= bsize)) then fail ());
    if own1.j < 1 || own1.j > (2 * bsize) - 1 then fail ();
    (* C: consecutive-number flags and bits (bit-carrying nodes only) *)
    if own1.j <= bsize then begin
      (match own1.flag with
      | Right_of -> if not (own1.bit1 && not own1.bit2) then fail ()
      | At_vb -> if own1.bit1 || not own1.bit2 then fail ()
      | Left_of -> if own1.bit1 <> own1.bit2 then fail ());
      (* neighbour flag pattern, within the bit-carrying prefix of the block *)
      let right_in_bits =
        match right_nbr v with
        | Some u when r1.(u).j = own1.j + 1 && r1.(u).j <= bsize -> Some u
        | _ -> None
      in
      let left_in_block = same_block_left v in
      (match own1.flag with
      | Right_of -> (
          match right_in_bits with Some u -> if r1.(u).flag <> Right_of then fail () | None -> ())
      | At_vb ->
          (match right_in_bits with Some u -> if r1.(u).flag <> Right_of then fail () | None -> ());
          (match left_in_block with Some u -> if r1.(u).flag <> Left_of then fail () | None -> ())
      | Left_of -> (
          match left_in_block with Some u -> if r1.(u).flag <> Left_of then fail () | None -> ()));
      if own1.j = 1 && own1.flag = Right_of then fail ()
    end;
    (* E1: global broadcasts *)
    (match left_nbr v with
    | None ->
        (match coins2.(v).r with Some r0 -> if own3.r_e <> r0 then fail () | None -> fail ());
        (match coins2.(v).rp with Some rp0 -> if own3.rp_e <> rp0 then fail () | None -> fail ())
    | Some u ->
        if own3.r_e <> r3.(u).r_e then fail ();
        if own3.rp_e <> r3.(u).rp_e then fail ());
    (* E2: block tag broadcast *)
    (if own1.j = 1 then
       match coins2.(v).rb with Some s -> if own3.rb_e <> s then fail () | None -> fail ()
     else
       match same_block_left v with
       | Some u -> if own3.rb_e <> r3.(u).rb_e then fail ()
       | None -> fail ());
    (* E3/E6: prefix chains *)
    let factor field x_bit elem rr = if x_bit && elem <= bsize then Fp.sub field elem rr else 1 in
    let base3 =
      match same_block_left v with
      | Some u -> (r3.(u).pre1, r3.(u).pre2, r3.(u).prep)
      | None -> (1, 1, 1)
    in
    let b1, b2, bp = base3 in
    if own3.pre1 <> Fp.mul p b1 (factor p own1.bit1 own1.j own3.r_e) then fail ();
    if own3.pre2 <> Fp.mul p b2 (factor p own1.bit2 own1.j own3.r_e) then fail ();
    if own3.prep <> Fp.mul p bp (factor p own1.bit1 own1.j own3.rp_e) then fail ();
    (* E4: total claims chain + endpoint pinning *)
    (match same_block_left v with
    | Some u -> if own3.f1 <> r3.(u).f1 || own3.f2 <> r3.(u).f2 then fail ()
    | None -> ());
    let rightmost_of_block =
      match right_nbr v with None -> true | Some u -> r1.(u).j = 1
    in
    if rightmost_of_block then begin
      if own3.f1 <> own3.pre1 then fail ();
      if own3.f2 <> own3.pre2 then fail ()
    end;
    (* E5: adjacent blocks hold consecutive positions *)
    (match right_nbr v with
    | Some u when r1.(u).j = 1 -> if own3.f2 <> r3.(u).f1 then fail ()
    | _ -> ());
    (* E7/E8: arc checks *)
    let my_in = arcs_into.(v) and my_out = arcs_from.(v) in
    let pair_of a = match Arc_map.find a arc_r1 with Inner -> None | Outer { i } -> Some (i, (Arc_map.find a arc_r3).jval) in
    (* inner arcs *)
    List.iter
      (fun (u, w) ->
        if Arc_map.find (u, w) arc_r1 = Inner then begin
          if r1.(u).j >= r1.(w).j then fail ();
          if r3.(u).rb_e <> r3.(w).rb_e then fail ()
        end)
      (my_in @ my_out);
    (* outer arcs: bounds and per-node pair consistency *)
    let in_pairs = List.filter_map pair_of my_in and out_pairs = List.filter_map pair_of my_out in
    List.iter (fun (i, _) -> if i < 1 || i > bsize then fail ()) (in_pairs @ out_pairs);
    let indexes ps = List.sort_uniq Int.compare (List.map fst ps) in
    let conflict ps =
      List.exists (fun i -> List.length (List.sort_uniq compare_pair (List.filter (fun (i', _) -> i' = i) ps)) > 1) (indexes ps)
    in
    if conflict in_pairs || conflict out_pairs then fail ();
    if List.exists (fun i -> List.mem i (indexes out_pairs)) (indexes in_pairs) then fail ();
    (* M1: z echo *)
    (if own1.j = 1 then
       match coins4.(v).z with Some z -> if own5.z_e <> z then fail () | None -> fail ()
     else
       match same_block_left v with
       | Some u -> if own5.z_e <> r5.(u).z_e then fail ()
       | None -> fail ());
    (* M2: the four verification-scheme prefix chains *)
    let base5 =
      match same_block_left v with
      | Some u -> (r5.(u).ph1, r5.(u).ph2, r5.(u).pt1, r5.(u).pt2)
      | None -> (1, 1, 1, 1)
    in
    let h1, h2, t1, t2 = base5 in
    let mult acc elems = List.fold_left (fun a e -> Fp.mul p2 a (Fp.sub p2 e own5.z_e)) acc elems in
    let phi_left_check =
      (* read from the left neighbour's label (or 1 at the leader) *)
      match same_block_left v with Some u -> r3.(u).prep | None -> 1
    in
    let s2h = if own1.j <= bsize && own1.bit1 then List.init own1.m_head (fun _ -> enc (own1.j, phi_left_check)) else [] in
    let s2t = if own1.j <= bsize && not own1.bit1 then List.init own1.m_tail (fun _ -> enc (own1.j, phi_left_check)) else [] in
    if own5.ph1 <> mult h1 (List.map enc (dedupe (List.filter_map pair_of my_in))) then fail ();
    if own5.ph2 <> mult h2 s2h then fail ();
    if own5.pt1 <> mult t1 (List.map enc (dedupe (List.filter_map pair_of my_out))) then fail ();
    if own5.pt2 <> mult t2 s2t then fail ();
    (* M3: block totals agree *)
    if rightmost_of_block then begin
      if own5.ph1 <> own5.ph2 then fail ();
      if own5.pt1 <> own5.pt2 then fail ()
    end;
    !ok
  in
  verify

let run ?(seed = 0) ?(c = 3) ?block ?(retain = false) ?(codec = Bits_flat.Flat) ~prover inst =
  validate_instance inst;
  let n = inst.n in
  let pa = Params.make ~c ?block n in
  let lay = Layout.make pa inst in
  let meter = Dip.meter ~retain () in
  let pos = lay.Layout.pos and blk = lay.Layout.blk and idx = lay.Layout.idx in
  let bsize = pa.Params.block in
  let p = pa.Params.p and p2 = pa.Params.p2 in
  let plan = plan_for prover pa lay inst in
  let x1 = plan.claimed_x1 in
  let x2 = Array.map (fun x -> x + 1) x1 in
  let bit1_of v = idx.(v) <= bsize && Layout.bit_at lay x1.(blk.(v)) idx.(v) in
  let bit2_of v = idx.(v) <= bsize && Layout.bit_at lay x2.(blk.(v)) idx.(v) in

  (* ---- Round 1 (prover): structure + commitments + multiplicities ---- *)
  let arc_r1 =
    List.fold_left
      (fun m (u, v) ->
        let d = plan.decide (u, v) in
        Arc_map.add (u, v)
          (match d with D_inner -> Inner | D_outer { i; _ } -> Outer { i })
          m)
      Arc_map.empty inst.arcs
  in
  let decision (u, v) = plan.decide (u, v) in
  (* Multiplicities: for each block b and index i, the number of distinct
     nodes of b holding a *claim-consistent* committed pair with index i, on
     the head side (incoming arcs) and tail side (outgoing arcs). *)
  let m_head = Array.make n 0 and m_tail = Array.make n 0 in
  let node_at_index = Array.make_matrix pa.Params.nblocks (bsize + 1) (-1) in
  Array.iteri (fun v i -> if i <= bsize then node_at_index.(blk.(v)).(i) <- v) idx;
  let bump arr b i = if i >= 1 && i <= bsize && node_at_index.(b).(i) >= 0 then begin
      let v = node_at_index.(b).(i) in
      arr.(v) <- arr.(v) + 1
    end
  in
  let claim_prefix_eq bu bv i =
    let b = bsize in
    let mask j x = if j = 0 then 0 else shift_right_safe x (b - j) in
    mask (i - 1) x1.(bu) = mask (i - 1) x1.(bv)
  in
  let seen_tail = Hashtbl.create 64 and seen_head = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      match decision (u, v) with
      | D_inner -> ()
      | D_outer { i; j_from_tail } ->
          let bu = blk.(u) and bv = blk.(v) in
          let tail_bit_ok = Layout.bit_at lay x1.(bu) i = false && i <= bsize in
          let head_bit_ok = i <= bsize && Layout.bit_at lay x1.(bv) i in
          let pref_eq = claim_prefix_eq bu bv i in
          (* the committed j equals phi of the source block's prefix; it
             matches block b's own prefix iff it *is* b's prefix (same
             source) or the claimed prefixes coincide *)
          let tail_val_ok = j_from_tail || pref_eq in
          let head_val_ok = (not j_from_tail) || pref_eq in
          if tail_bit_ok && tail_val_ok && not (Hashtbl.mem seen_tail (u, i)) then begin
            Hashtbl.add seen_tail (u, i) ();
            bump m_tail bu i
          end;
          if head_bit_ok && head_val_ok && not (Hashtbl.mem seen_head (v, i)) then begin
            Hashtbl.add seen_head (v, i) ();
            bump m_head bv i
          end)
    inst.arcs;
  let vb_index b =
    (* least significant 0 bit of x1.(b), as a 1-based MSB-first index;
       None if x1 is all ones on B bits *)
    let x = x1.(b) in
    let rec go j = if j < 1 then None else if not (Layout.bit_at lay x j) then Some j else go (j - 1) in
    go bsize
  in
  let r1 : r1_node array =
    Array.init n (fun v ->
        let b = blk.(v) in
        let flag =
          match vb_index b with
          | None -> Left_of
          | Some jb -> if idx.(v) < jb then Left_of else if idx.(v) = jb then At_vb else Right_of
        in
        {
          j = idx.(v);
          bit1 = bit1_of v;
          bit2 = bit2_of v;
          flag;
          m_head = m_head.(v);
          m_tail = m_tail.(v);
        })
  in
  Dip.record_prover meter
    (Array.append
       (Array.map (fun l -> r1_node_bits codec pa l) r1)
       (Array.of_list (List.map (fun a -> r1_arc_bits codec pa (Arc_map.find a arc_r1)) inst.arcs)));

  (* ---- Round 2 (verifier): r, r', r_b ---- *)
  let rng = Rng.create seed in
  let r_coins = Rng.split_string rng "r" and rp_coins = Rng.split_string rng "r'" in
  let rb_coins = Rng.split_string rng "rb" in
  let is_leader v = r1.(v).j = 1 in
  let coins2 : coins2 array =
    Array.init n (fun v ->
        let leftmost = pos.(v) = 0 in
        {
          r = (if leftmost then Some (Fp.sample p (Rng.split r_coins v)) else None);
          rp = (if leftmost then Some (Fp.sample p (Rng.split rp_coins v)) else None);
          rb = (if is_leader v then Some (Fp.sample p (Rng.split rb_coins v)) else None);
        })
  in
  (* dipp-refine: value <= 3*loglog + 6 *)
  let wp = Fp.bit_width p in
  Dip.record_verifier meter
    (Array.map
       (fun (cn : coins2) ->
         Bits.concat
           (List.filter_map
              (fun o -> Option.map (Bits.of_int ~width:wp) o)
              [ cn.r; cn.rp; cn.rb ]))
       coins2);

  (* ---- Round 3 (prover): broadcasts, prefix evaluations, commitments ---- *)
  let leftmost_node = inst.path.(0) in
  let r, rp =
    (* the leftmost path node always draws r and r' in round 2 *)
    match (coins2.(leftmost_node).r, coins2.(leftmost_node).rp) with
    | Some r, Some rp -> (r, rp)
    | None, _ | _, None -> assert false
  in
  let block_leader = Array.make pa.Params.nblocks (-1) in
  Array.iteri (fun v i -> if i = 1 then block_leader.(blk.(v)) <- v) idx;
  let rb_of_block =
    Array.map (fun l -> match coins2.(l).rb with Some rb -> rb | None -> assert false) block_leader
  in
  let r3 : r3_node array =
    Array.init n (fun v ->
        let b = blk.(v) in
        {
          r_e = r;
          rp_e = rp;
          rb_e = rb_of_block.(b);
          pre1 = prefix_upto pa p x1.(b) r idx.(v);
          pre2 = prefix_upto pa p x2.(b) r idx.(v);
          f1 = prefix_upto pa p x1.(b) r bsize;
          f2 = prefix_upto pa p x2.(b) r bsize;
          prep = prefix_upto pa p x1.(b) rp idx.(v);
        })
  in
  let arc_r3 =
    List.fold_left
      (fun m (u, v) ->
        match decision (u, v) with
        | D_inner -> Arc_map.add (u, v) { jval = 0 } m
        | D_outer { i; j_from_tail } ->
            let src = if j_from_tail then blk.(u) else blk.(v) in
            Arc_map.add (u, v) { jval = prefix_upto pa p x1.(src) rp (i - 1) } m)
      Arc_map.empty inst.arcs
  in
  Dip.record_prover meter
    (Array.append
       (Array.map (fun l -> r3_node_bits codec pa l) r3)
       (Array.of_list
          (List.map (fun a -> Bits.of_int ~width:wp (Arc_map.find a arc_r3).jval) inst.arcs)));

  (* ---- Round 4 (verifier): z per block ---- *)
  let z_coins = Rng.split_string rng "z" in
  let coins4 : coins4 array =
    Array.init n (fun v -> { z = (if is_leader v then Some (Fp.sample p2 (Rng.split z_coins v)) else None) })
  in
  let wq = Fp.bit_width p2 in
  Dip.record_verifier meter
    (Array.map (fun (cn : coins4) -> match cn.z with Some z -> Bits.of_int ~width:wq z | None -> Bits.empty) coins4);

  (* ---- Round 5 (prover): verification-scheme multiset equalities ---- *)
  let z_of_block =
    Array.map (fun l -> match coins4.(l).z with Some z -> z | None -> assert false) block_leader
  in
  (* Encoded element of a committed pair. *)
  let enc (i, j) = ((i - 1) * p.Fp.p) + j in
  (* Per node: its S1 contributions (deduped by index) on each side. *)
  let in_arcs = Array.make n [] and out_arcs = Array.make n [] in
  List.iter
    (fun (u, v) ->
      match Arc_map.find (u, v) arc_r1 with
      | Inner -> ()
      | Outer { i } ->
          let jv = (Arc_map.find (u, v) arc_r3).jval in
          out_arcs.(u) <- (i, jv) :: out_arcs.(u);
          in_arcs.(v) <- (i, jv) :: in_arcs.(v))
    inst.arcs;
  let dedupe pairs = List.sort_uniq compare_pair pairs in
  let s1_head v = List.map enc (dedupe in_arcs.(v)) in
  let s1_tail v = List.map enc (dedupe out_arcs.(v)) in
  let phi_left v =
    (* phi^b_{idx(v)-1}(r'): the left neighbour's prefix; 1 at the leader *)
    if idx.(v) = 1 then 1 else prefix_upto pa p x1.(blk.(v)) rp (idx.(v) - 1)
  in
  let s2_side bit_wanted m v =
    if idx.(v) <= bsize && bit1_of v = bit_wanted then List.init m.(v) (fun _ -> enc (idx.(v), phi_left v))
    else []
  in
  let m_head_arr = Array.map (fun (l : r1_node) -> l.m_head) r1 in
  let m_tail_arr = Array.map (fun (l : r1_node) -> l.m_tail) r1 in
  let r5 : r5_node array = Array.make n { z_e = 0; ph1 = 1; ph2 = 1; pt1 = 1; pt2 = 1 } in
  for b = 0 to pa.Params.nblocks - 1 do
    let z = z_of_block.(b) in
    let acc1 = ref 1 and acc2 = ref 1 and acc3 = ref 1 and acc4 = ref 1 in
    for position = b * bsize to min (n - 1) ((if b = pa.Params.nblocks - 1 then n else (b + 1) * bsize) - 1) do
      let v = inst.path.(position) in
      let fold acc elems = List.iter (fun e -> acc := Fp.mul p2 !acc (Fp.sub p2 e z)) elems in
      fold acc1 (s1_head v);
      fold acc2 (s2_side true m_head_arr v);
      fold acc3 (s1_tail v);
      fold acc4 (s2_side false m_tail_arr v);
      r5.(v) <- { z_e = z; ph1 = !acc1; ph2 = !acc2; pt1 = !acc3; pt2 = !acc4 }
    done
  done;
  Dip.record_prover meter (Array.map (fun l -> r5_node_bits codec pa l) r5);

  (* ---- Verification: purely local checks at each node ---- *)
  let verify = node_checks pa inst ~r1 ~r3 ~r5 ~coins2 ~coins4 ~arc_r1 ~arc_r3 in
  let verdict = Dip.all_accept ~n verify in
  { verdict; stats = Dip.stats meter; params = pa; transcript = Dip.transcript meter }

(* ------------------------------------------------------------------ *)
(* Decision-only transcript replay.                                    *)
(* ------------------------------------------------------------------ *)

(* Decoders are strict inverses of the serializers above: every element
   must parse completely (no trailing bits), so any tampering that changes
   a label's length — and most that change its content — is caught either
   here or by the re-run decision functions. *)

let fail_decode what = invalid_arg ("Lr_sorting.replay: malformed " ^ what)

let decode_all codec what b f =
  let d = Bits_flat.Dec.of_bits codec b in
  let v = f d in
  if Bits_flat.Dec.remaining d <> 0 then fail_decode what;
  v

let decode_r1_node codec (pa : Params.t) b =
  let wi = bits_for (2 * pa.Params.block) and wm = bits_for ((2 * pa.Params.block) + 1) in
  decode_all codec "r1 node label" b (fun d ->
      let j = Bits_flat.Dec.int d ~width:wi in
      let bit1 = Bits_flat.Dec.bool d in
      let bit2 = Bits_flat.Dec.bool d in
      let flag =
        match Bits_flat.Dec.int d ~width:2 with
        | 0 -> Left_of
        | 1 -> At_vb
        | 2 -> Right_of
        | _ -> fail_decode "r1 flag"
      in
      let m_head = Bits_flat.Dec.int d ~width:wm in
      let m_tail = Bits_flat.Dec.int d ~width:wm in
      { j; bit1; bit2; flag; m_head; m_tail })

let decode_r1_arc codec (pa : Params.t) b =
  let wi = bits_for (pa.Params.block + 1) in
  decode_all codec "r1 arc label" b (fun d ->
      let outer = Bits_flat.Dec.bool d in
      let i = Bits_flat.Dec.int d ~width:wi in
      if outer then Outer { i }
      else if i <> 0 then fail_decode "r1 arc padding"
      else Inner)

let decode_r3_node codec (pa : Params.t) b =
  let wp = Fp.bit_width pa.Params.p in
  decode_all codec "r3 node label" b (fun d ->
      let f () = Bits_flat.Dec.int d ~width:wp in
      let r_e = f () in
      let rp_e = f () in
      let rb_e = f () in
      let pre1 = f () in
      let pre2 = f () in
      let f1 = f () in
      let f2 = f () in
      let prep = f () in
      { r_e; rp_e; rb_e; pre1; pre2; f1; f2; prep })

let decode_r3_arc codec (pa : Params.t) b =
  let wp = Fp.bit_width pa.Params.p in
  decode_all codec "r3 arc label" b (fun d -> { jval = Bits_flat.Dec.int d ~width:wp })

let decode_r5_node codec (pa : Params.t) b =
  let wq = Fp.bit_width pa.Params.p2 in
  decode_all codec "r5 node label" b (fun d ->
      let f () = Bits_flat.Dec.int d ~width:wq in
      let z_e = f () in
      let ph1 = f () in
      let ph2 = f () in
      let pt1 = f () in
      let pt2 = f () in
      { z_e; ph1; ph2; pt1; pt2 })

let decode_coins2 codec (pa : Params.t) ~leftmost ~leader b =
  let wp = Fp.bit_width pa.Params.p in
  decode_all codec "round-2 coins" b (fun d ->
      let take () = Some (Bits_flat.Dec.int d ~width:wp) in
      let rr = if leftmost then take () else None in
      let rp = if leftmost then take () else None in
      let rb = if leader then take () else None in
      { r = rr; rp; rb })

let decode_coins4 codec (pa : Params.t) ~leader b =
  let wq = Fp.bit_width pa.Params.p2 in
  decode_all codec "round-4 coins" b (fun d ->
      { z = (if leader then Some (Bits_flat.Dec.int d ~width:wq) else None) })

let replay ?(c = 3) ?block ?(codec = Bits_flat.Flat) inst frames =
  validate_instance inst;
  let n = inst.n in
  let pa = Params.make ~c ?block n in
  let pos = positions inst in
  let nar = List.length inst.arcs in
  match frames with
  | [
   (Dip.Prover_phase, f1);
   (Dip.Verifier_phase, f2);
   (Dip.Prover_phase, f3);
   (Dip.Verifier_phase, f4);
   (Dip.Prover_phase, f5);
  ] -> (
      try
        if
          Array.length f1 <> n + nar
          || Array.length f3 <> n + nar
          || Array.length f2 <> n
          || Array.length f4 <> n
          || Array.length f5 <> n
        then fail_decode "frame arity";
        let r1 = Array.init n (fun v -> decode_r1_node codec pa f1.(v)) in
        let r3 = Array.init n (fun v -> decode_r3_node codec pa f3.(v)) in
        let r5 = Array.init n (fun v -> decode_r5_node codec pa f5.(v)) in
        let coins2 =
          Array.init n (fun v ->
              decode_coins2 codec pa ~leftmost:(pos.(v) = 0) ~leader:(r1.(v).j = 1) f2.(v))
        in
        let coins4 = Array.init n (fun v -> decode_coins4 codec pa ~leader:(r1.(v).j = 1) f4.(v)) in
        let _, arc_r1, arc_r3 =
          List.fold_left
            (fun (k, m1, m3) a ->
              ( k + 1,
                Arc_map.add a (decode_r1_arc codec pa f1.(n + k)) m1,
                Arc_map.add a (decode_r3_arc codec pa f3.(n + k)) m3 ))
            (0, Arc_map.empty, Arc_map.empty)
            inst.arcs
        in
        let verify = node_checks pa inst ~r1 ~r3 ~r5 ~coins2 ~coins4 ~arc_r1 ~arc_r3 in
        Ok (Dip.all_accept ~n verify)
      with
      | Invalid_argument msg -> Error msg
      | Bits.Reader.Underflow -> Error "Lr_sorting.replay: label underflow")
  | _ -> Error "Lr_sorting.replay: expected a 5-round P-V-P-V-P transcript"
