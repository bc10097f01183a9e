let eval f s x =
  List.fold_left (fun acc e -> Fp.mul f acc (Fp.sub f e x)) 1 s

let collision_bound ~size ~p = float_of_int size /. float_of_int p
