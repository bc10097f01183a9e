(* Parallel repetition of a whole protocol run, for the tests.

   The paper invokes "standard parallel repetition" to drive a constant
   soundness error down to 2^-l (e.g. after Lemma 2.5).  [run] runs [reps]
   copies of a protocol, copy [i] on the seed named ["rep/<i>"] under
   [seed], accepts iff all copies accept, and accounts the labels of all
   copies into one stats record (parallel copies concatenate per phase, so
   proof sizes add and rounds stay put). *)

type 'a t = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  runs : 'a list;
  accepting_runs : int;
}

let run ~reps ~seed ~run ~verdict ~stats =
  if reps < 1 then invalid_arg "Amplify.run";
  let runs = List.init reps (fun i -> run ~seed:(Rng.derive seed ("rep/" ^ string_of_int i))) in
  let verdicts = List.map verdict runs in
  let accepting_runs = List.length (List.filter (fun v -> v.Dip.accepted) verdicts) in
  let combined_verdict =
    {
      Dip.accepted = accepting_runs = reps;
      rejecting =
        List.sort_uniq Int.compare (List.concat_map (fun v -> v.Dip.rejecting) verdicts);
    }
  in
  { verdict = combined_verdict; stats = Dip.merge_parallel (List.map stats runs); runs; accepting_runs }

(* [single^reps], the predicted residual error of [reps] copies. *)
let soundness_error ~single ~reps = single ** float_of_int reps
