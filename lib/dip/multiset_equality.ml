type instance = {
  tree : Graph.t;
  parent : int array;
  s1 : int list array;
  s2 : int list array;
  k : int;
  universe : int;
}

let field inst =
  let k = max 2 inst.k in
  Fp.create (Prime.next_prime (max (k * k) (max inst.universe 16)))

type label = { z : int; e1 : int; e2 : int }

let sample_z inst rng = Fp.sample (field inst) rng

let honest_labels inst ~z =
  let f = field inst in
  let n = Array.length inst.parent in
  let children = Traversal.children_of_parent inst.parent in
  let e1 = Array.make n (-1) and e2 = Array.make n (-1) in
  (* -2 marks a node in progress: a cheating parent array's pointer cycle
     closes on placeholder 1 instead of recursing forever *)
  let rec fill which store v =
    if store.(v) >= 0 then store.(v)
    else if store.(v) = -2 then 1
    else begin
      store.(v) <- -2;
      let own = Poly.eval f (which v) z in
      let r = List.fold_left (fun acc c -> Fp.mul f acc (fill which store c)) own children.(v) in
      store.(v) <- r;
      r
    end
  in
  for v = 0 to n - 1 do
    ignore (fill (fun v -> inst.s1.(v)) e1 v);
    ignore (fill (fun v -> inst.s2.(v)) e2 v)
  done;
  Array.init n (fun v -> { z; e1 = e1.(v); e2 = e2.(v) })

let labels_to_bits inst labels =
  let w = Fp.bit_width (field inst) in
  Array.map
    (fun l ->
      Bits.concat [ Bits.of_int ~width:w l.z; Bits.of_int ~width:w l.e1; Bits.of_int ~width:w l.e2 ])
    labels

let label_of_bits ~field b =
  let width = Fp.bit_width field in
  Bits_flat.Dec.parse Bits_flat.Flat b (fun d ->
      let z = Bits_flat.Dec.int d ~width in
      let e1 = Bits_flat.Dec.int d ~width in
      let e2 = Bits_flat.Dec.int d ~width in
      { z; e1; e2 })

(* [acc] times the children's picked evaluations; only called once every
   child was heard. *)
let rec product f pick heard acc = function
  | [] -> acc
  | c :: cs -> (
      match heard c with
      | Some l -> product f pick heard (Fp.mul f acc (pick l)) cs
      | None -> product f pick heard acc cs)

let verify_node inst ~field ~children ~z_sampled ~own ~heard v =
  let kids = children.(v) in
  let agg_ok =
    (not (List.for_all (fun c -> Option.is_some (heard c)) kids))
    || own.e1 = product field (fun l -> l.e1) heard (Poly.eval field inst.s1.(v) own.z) kids
       && own.e2 = product field (fun l -> l.e2) heard (Poly.eval field inst.s2.(v) own.z) kids
  in
  let p = inst.parent.(v) in
  let local_ok =
    if p < 0 then own.z = z_sampled && own.e1 = own.e2
    else match heard p with Some l -> l.z = own.z | None -> true
  in
  agg_ok && local_ok

let run ?(seed = 0) inst =
  let n = Array.length inst.parent in
  let meter = Dip.meter () in
  let rng = Rng.create seed in
  let z = sample_z inst rng in
  let field = field inst in
  let w = Fp.bit_width field in
  let coins = Array.init n (fun v -> if inst.parent.(v) < 0 then Bits.of_int ~width:w z else Bits.empty) in
  Dip.record_verifier meter coins;
  let labels = honest_labels inst ~z in
  Dip.record_prover meter (labels_to_bits inst labels);
  let children = Traversal.children_of_parent inst.parent in
  let heard = Dip.heard_all labels in
  let verdict =
    Dip.all_accept ~n (fun v ->
        verify_node inst ~field ~children ~z_sampled:z ~own:labels.(v) ~heard v)
  in
  (verdict, Dip.stats meter)
