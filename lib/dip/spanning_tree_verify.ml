type coins = { xs : int array array; tags : Bits.t option array array; tag_bits : int }
type label = { sums : int array; taus : Bits.t array }
type response = label array

let q = 16
let q_bits = 4

let draw_coins ~reps ~tag_bits ~parent rng =
  let n = Array.length parent in
  let xs = Array.init reps (fun rep -> Array.init n (fun v -> Rng.int (Rng.split rng ((rep * n) + v)) q)) in
  let tags =
    Array.init reps (fun rep ->
        Array.init n (fun v ->
            if parent.(v) < 0 then Some (Bits.random (Rng.split rng (((reps + rep) * n) + v)) tag_bits)
            else None))
  in
  { xs; tags; tag_bits }

(* The prover's response must tolerate *cheating* parent claims (pointer
   cycles): on a cycle the local equations are unsatisfiable — exactly what
   the verifier exploits — so the prover fixes an arbitrary value at one
   cycle node and propagates; the wrap-around constraint then fails unless
   the random x's happen to cancel. *)
let honest_response ~reps ~parent coins =
  let n = Array.length parent in
  let children = Traversal.children_of_parent parent in
  let resp =
    Array.init n (fun _ -> { sums = Array.make reps (-1); taus = Array.make reps Bits.empty })
  in
  let zero_tag = Bits.of_string (String.make coins.tag_bits '0') in
  (* 0 = fresh, 1 = in progress, 2 = done *)
  let state = Array.make n 0 in
  for rep = 0 to reps - 1 do
    Array.fill state 0 n 0;
    let rec sum v =
      let sums = resp.(v).sums in
      if sums.(rep) >= 0 then sums.(rep)
      else if state.(v) = 1 then 0 (* cycle: best-effort placeholder *)
      else begin
        state.(v) <- 1;
        let s = List.fold_left (fun acc c -> (acc + sum c) mod q) coins.xs.(rep).(v) children.(v) in
        state.(v) <- 2;
        sums.(rep) <- s;
        s
      end
    in
    for v = 0 to n - 1 do ignore (sum v) done;
    Array.fill state 0 n 0;
    let rec tau v =
      let taus = resp.(v).taus in
      if Bits.length taus.(rep) > 0 then taus.(rep)
      else if state.(v) = 1 then zero_tag (* parent cycle *)
      else begin
        state.(v) <- 1;
        let t =
          if parent.(v) < 0 then match coins.tags.(rep).(v) with Some t -> t | None -> zero_tag
          else tau parent.(v)
        in
        state.(v) <- 2;
        taus.(rep) <- t;
        t
      end
    in
    for v = 0 to n - 1 do ignore (tau v) done
  done;
  resp

let coins_to_bits coins =
  let reps = Array.length coins.xs in
  let n = Array.length coins.xs.(0) in
  Array.init n (fun v ->
      Bits.concat
        (List.concat
           (List.init reps (fun rep ->
                Bits.of_int ~width:q_bits coins.xs.(rep).(v)
                :: (match coins.tags.(rep).(v) with Some t -> [ t ] | None -> [])))))

let response_to_bits resp =
  Array.map
    (fun l ->
      Bits.concat
        (List.concat
           (List.init (Array.length l.sums) (fun rep ->
                [ Bits.of_int ~width:q_bits l.sums.(rep); l.taus.(rep) ]))))
    resp

let label_of_bits coins b =
  let reps = Array.length coins.xs in
  Bits_flat.Dec.parse Bits_flat.Flat b (fun d ->
      let sums = Array.make reps 0 and taus = Array.make reps Bits.empty in
      for rep = 0 to reps - 1 do
        sums.(rep) <- Bits_flat.Dec.int d ~width:q_bits;
        taus.(rep) <- Bits.of_int ~width:coins.tag_bits (Bits_flat.Dec.int d ~width:coins.tag_bits)
      done;
      { sums; taus })

(* Sum of the children's claimed subtree sums in repetition [rep], on top
   of [acc]; only called once every child was heard. *)
let rec child_sum heard rep acc = function
  | [] -> acc
  | c :: cs -> (
      match heard c with
      | Some l -> child_sum heard rep ((acc + l.sums.(rep)) mod q) cs
      | None -> child_sum heard rep acc cs)

let same_taus reps (a : label) (b : label) =
  let rec go rep = rep = reps || (Bits.equal a.taus.(rep) b.taus.(rep) && go (rep + 1)) in
  go 0

let verify_node ~parent ~children ~graph ~coins ~(own : label) ~heard v =
  let reps = Array.length coins.xs in
  let p = parent.(v) in
  (* a parent outside N(v) could not be read locally *)
  let ok = ref (p < 0 || Graph.mem_edge graph v p) in
  (* (a) subtree sums: checkable only with every child heard *)
  if List.for_all (fun c -> Option.is_some (heard c)) children.(v) then
    for rep = 0 to reps - 1 do
      if own.sums.(rep) <> child_sum heard rep coins.xs.(rep).(v) children.(v) then ok := false
    done;
  (* (b) a root checks its own tag, any other node its parent's tau *)
  (if p < 0 then
     for rep = 0 to reps - 1 do
       match coins.tags.(rep).(v) with
       | Some t when Bits.equal own.taus.(rep) t -> ()
       | Some _ | None -> ok := false
     done
   else match heard p with Some l -> if not (same_taus reps own l) then ok := false | None -> ());
  (* (c) tau agrees across every heard G-edge *)
  Array.iter
    (fun u ->
      match heard u with Some l -> if not (same_taus reps own l) then ok := false | None -> ())
    (Graph.neighbors graph v);
  !ok

let run ?(seed = 0) ?(reps = 8) ?(tag_bits = 4) g ~parent =
  let n = Graph.n g in
  let meter = Dip.meter () in
  (* Round 1: the structure encoding (charged to the caller normally; we
     charge it here for standalone runs). *)
  let enc = Forest_encoding.encode g ~parent in
  let cbits = Forest_encoding.color_bits enc in
  Dip.record_prover meter (Array.map (Forest_encoding.to_bits ~cbits) enc);
  let rng = Rng.create seed in
  let coins = draw_coins ~reps ~tag_bits ~parent rng in
  Dip.record_verifier meter (coins_to_bits coins);
  let response = honest_response ~reps ~parent coins in
  Dip.record_prover meter (response_to_bits response);
  let children = Traversal.children_of_parent parent in
  let heard = Dip.heard_all response in
  let verdict =
    Dip.all_accept ~n (fun v ->
        verify_node ~parent ~children ~graph:g ~coins ~own:response.(v) ~heard v)
  in
  (verdict, Dip.stats meter)
