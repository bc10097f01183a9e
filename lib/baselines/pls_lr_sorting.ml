type result = { verdict : Dip.verdict; stats : Dip.stats }

(* Position bits: ceil(log2 n), and at least one so a one-node path still
   writes a label. *)
let full_width n = max 1 (Ilog.ceil_log2 n)

let run ?label_bits inst =
  Dipp_protocols.Lr_sorting.validate_instance inst;
  let n = inst.Dipp_protocols.Lr_sorting.n in
  (* dipp-refine: value <= log + 1 *)
  let width = match label_bits with Some w -> w | None -> full_width n in
  let m = 1 lsl width in
  let meter = Dip.meter () in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) inst.Dipp_protocols.Lr_sorting.path;
  let label v = pos.(v) mod m in
  Dip.record_prover meter (Array.init n (fun v -> Bits.of_int ~width (label v)));
  let arcs_at = Array.make n [] in
  List.iter
    (fun (u, v) ->
      arcs_at.(u) <- (u, v) :: arcs_at.(u);
      arcs_at.(v) <- (u, v) :: arcs_at.(v))
    inst.Dipp_protocols.Lr_sorting.arcs;
  let verify v =
    let ok = ref true in
    let p = label v in
    (* path neighbors *)
    if pos.(v) > 0 then begin
      let u = inst.Dipp_protocols.Lr_sorting.path.(pos.(v) - 1) in
      if label u <> (p - 1 + m) mod m then ok := false
    end;
    if pos.(v) < n - 1 then begin
      let u = inst.Dipp_protocols.Lr_sorting.path.(pos.(v) + 1) in
      if label u <> (p + 1) mod m then ok := false
    end;
    (* arcs must increase; with truncated labels the comparison is the
       prover-claimed integer order of the residues *)
    List.iter (fun (u, w) -> if label u >= label w then ok := false) arcs_at.(v);
    !ok
  in
  { verdict = Dip.all_accept ~n verify; stats = Dip.stats meter }
