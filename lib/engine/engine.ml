module Spec = Spec

type result = {
  spec : Spec.t;
  completed : int;
  rejected : int;
  envelope : Dip.stats option;
}

let rejection_rate r =
  if r.completed = 0 then 0. else float_of_int r.rejected /. float_of_int r.completed

let wilson95 ~rejected ~total =
  if total = 0 then (0., 0.)
  else begin
    let z = 1.96 in
    let n = float_of_int total in
    let p = float_of_int rejected /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let center = (p +. (z2 /. (2. *. n))) /. denom in
    let half =
      z *. sqrt (((p *. (1. -. p)) /. n) +. (z2 /. (4. *. n *. n))) /. denom
    in
    (max 0. (center -. half), min 1. (center +. half))
  end

let run ?jobs ~seed (spec : Spec.t) =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let spec_rng = Rng.split_string (Rng.create seed) spec.Spec.id in
  let outcomes =
    Pool.run ~jobs spec.Spec.trials (fun i -> spec.Spec.trial (Rng.split spec_rng i) i)
  in
  (* Fold in index order: the aggregate must not depend on which worker
     finished first. *)
  let completed = ref 0 and rejected = ref 0 and stats_rev = ref [] in
  Array.iter
    (fun o ->
      match o with
      | None -> ()
      | Some { Spec.accepted; stats } ->
          incr completed;
          if not accepted then incr rejected;
          stats_rev := stats :: !stats_rev)
    outcomes;
  let envelope =
    match !stats_rev with [] -> None | l -> Some (Dip.merge_trials (List.rev l))
  in
  { spec; completed = !completed; rejected = !rejected; envelope }

let run_all ?jobs ~seed specs = List.map (fun s -> run ?jobs ~seed s) specs

(* ---- the trials_report.json payload ---------------------------------- *)

let report_string ~seed results =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "{\"seed\": %d, \"experiments\": [" seed);
  List.iteri
    (fun i r ->
      let lo, hi = wilson95 ~rejected:r.rejected ~total:r.completed in
      let rounds, max_proof, max_node, prover_total, verifier_total =
        match r.envelope with
        | None -> (0, 0, 0, 0, 0)
        | Some s ->
            ( s.Dip.interaction_rounds,
              s.Dip.proof_size_bits,
              s.Dip.max_node_total_bits,
              s.Dip.total_prover_bits,
              s.Dip.total_verifier_bits )
      in
      Buffer.add_string b
        (Printf.sprintf
           "%s\n\
           \  {\"id\": \"%s\", \"experiment\": \"%s\", \"family\": \"%s\", \"adversary\": \
            \"%s\",\n\
           \   \"n\": %d, \"trials\": %d, \"completed\": %d, \"rejected\": %d,\n\
           \   \"rejection_rate\": %.6f, \"ci95_low\": %.6f, \"ci95_high\": %.6f,\n\
           \   \"rounds\": %d, \"max_proof_bits\": %d, \"max_node_total_bits\": %d,\n\
           \   \"total_prover_bits\": %d, \"total_verifier_bits\": %d}"
           (if i = 0 then "" else ",")
           (Json.escape r.spec.Spec.id)
           (Json.escape r.spec.Spec.experiment)
           (Json.escape r.spec.Spec.family)
           (Json.escape r.spec.Spec.adversary)
           r.spec.Spec.n r.spec.Spec.trials r.completed r.rejected (rejection_rate r) lo hi
           rounds max_proof max_node prover_total verifier_total))
    results;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_report ~path ~seed results =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (report_string ~seed results))
