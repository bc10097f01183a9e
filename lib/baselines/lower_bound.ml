let fooling_lr ~n ~label_bits =
  let m = 1 lsl label_bits in
  if 2 * m >= n then None
  else begin
    (* Arc from position 2m back to position 1 claims "before" falsely; the
       truncated labels read 0 < 1 and every node accepts. *)
    let path = Array.init n Fun.id in
    Some { Dipp_protocols.Lr_sorting.n; path; arcs = [ (2 * m, 1) ] }
  end

let fooling_accepted ~n ~label_bits =
  match fooling_lr ~n ~label_bits with
  | None -> false
  | Some inst ->
      assert (not (Dipp_protocols.Lr_sorting.is_yes_instance inst));
      let r = Pls_lr_sorting.run ~label_bits inst in
      r.Pls_lr_sorting.verdict.Dip.accepted

let long_chord_yes ~n =
  if n < 6 then invalid_arg "Lower_bound.long_chord_yes";
  let path_edges = List.init (n - 1) (fun i -> (i, i + 1)) in
  let chords = [ (0, n - 1); (1, n - 2) ] in
  let graph = Graph.create ~n (path_edges @ chords) in
  { Pls_path_outerplanar.graph; witness = List.init n Fun.id }

let long_chord_accepts ~n ~label_bits =
  let inst = long_chord_yes ~n in
  (Pls_path_outerplanar.run ~label_bits inst).Pls_path_outerplanar.verdict.Dip.accepted

let ceil_log2 n = max 1 (Ilog.ceil_log2 n)

let soundness_threshold ~n =
  let rec scan w = if w > ceil_log2 n then w else if fooling_accepted ~n ~label_bits:w then scan (w + 1) else w in
  scan 1

let completeness_threshold ~n =
  let rec scan w =
    if w > ceil_log2 n + 1 then w
    else if long_chord_accepts ~n ~label_bits:w then w
    else scan (w + 1)
  in
  scan 1
