type phase = Prover_phase | Verifier_phase

type meter = {
  mutable phases_rev : phase list;
  mutable phase_max_rev : int list;
  mutable proof_size : int;
  mutable node_totals : int array;
  mutable total_prover : int;
  mutable total_verifier : int;
  retain : bool;
  mutable retained_rev : (phase * Bits.t array) list;
}

let meter ?(retain = false) () =
  {
    phases_rev = [];
    phase_max_rev = [];
    proof_size = 0;
    node_totals = [||];
    total_prover = 0;
    total_verifier = 0;
    retain;
    retained_rev = [];
  }

let ensure_totals m n = if Array.length m.node_totals < n then begin
    let t = Array.make n 0 in
    Array.blit m.node_totals 0 t 0 (Array.length m.node_totals);
    m.node_totals <- t
  end

let record_prover m labels =
  m.phases_rev <- Prover_phase :: m.phases_rev;
  ensure_totals m (Array.length labels);
  let phase_max = ref 0 in
  Array.iteri
    (fun v l ->
      let b = Bits.length l in
      m.proof_size <- max m.proof_size b;
      phase_max := max !phase_max b;
      m.node_totals.(v) <- m.node_totals.(v) + b;
      m.total_prover <- m.total_prover + b)
    labels;
  m.phase_max_rev <- !phase_max :: m.phase_max_rev;
  if m.retain then m.retained_rev <- (Prover_phase, Array.copy labels) :: m.retained_rev

let record_verifier m coins =
  m.phases_rev <- Verifier_phase :: m.phases_rev;
  let phase_max = ref 0 in
  Array.iter
    (fun c ->
      phase_max := max !phase_max (Bits.length c);
      m.total_verifier <- m.total_verifier + Bits.length c)
    coins;
  m.phase_max_rev <- !phase_max :: m.phase_max_rev;
  if m.retain then m.retained_rev <- (Verifier_phase, Array.copy coins) :: m.retained_rev

type stats = {
  interaction_rounds : int;
  proof_size_bits : int;
  max_node_total_bits : int;
  total_prover_bits : int;
  total_verifier_bits : int;
  phases : phase list;
  per_phase : (phase * int) list;
}

(* Zip that stops at the shorter list: the two meter lists grow in
   lockstep, but a truncated or hand-built stats value must not raise. *)
let rec zip_min a b =
  match (a, b) with x :: xs, y :: ys -> (x, y) :: zip_min xs ys | _, _ -> []

let stats m =
  {
    interaction_rounds = List.length m.phases_rev;
    proof_size_bits = m.proof_size;
    max_node_total_bits = Array.fold_left max 0 m.node_totals;
    total_prover_bits = m.total_prover;
    total_verifier_bits = m.total_verifier;
    phases = List.rev m.phases_rev;
    per_phase = zip_min (List.rev m.phases_rev) (List.rev m.phase_max_rev);
  }

(* ---- declared complexity budgets (Theorems 1.2-1.8) ------------------ *)

type budget = {
  budget_rounds : int;
  budget_schedule : phase list;
  budget_proof_bits : int;
  budget_floor_bits : int;
}

type budget_violation =
  | Rounds_exceeded of { claimed : int; measured : int }
  | Schedule_mismatch of { claimed : phase list; measured : phase list }
  | Proof_size_exceeded of { claimed : int; measured : int }
  | Proof_size_below_floor of { floor : int; measured : int }

let phase_equal a b =
  match (a, b) with
  | Prover_phase, Prover_phase | Verifier_phase, Verifier_phase -> true
  | Prover_phase, Verifier_phase | Verifier_phase, Prover_phase -> false

(* Component folds (block-cut / SP compositions) keep only the top-level
   meter's phase list while taking the max of interaction rounds, so a
   measured phase list may be shorter than the declared schedule: the
   check is prefix agreement, not equality. *)
let rec is_phase_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | _ :: _, [] -> false
  | a :: tl, b :: tl' -> phase_equal a b && is_phase_prefix tl tl'

let check_budget b s =
  let violations = ref [] in
  let push v = violations := v :: !violations in
  if s.interaction_rounds > b.budget_rounds then
    push (Rounds_exceeded { claimed = b.budget_rounds; measured = s.interaction_rounds });
  if not (is_phase_prefix s.phases b.budget_schedule) then
    push (Schedule_mismatch { claimed = b.budget_schedule; measured = s.phases });
  if s.proof_size_bits > b.budget_proof_bits then
    push (Proof_size_exceeded { claimed = b.budget_proof_bits; measured = s.proof_size_bits });
  if b.budget_floor_bits > 0 && s.proof_size_bits < b.budget_floor_bits then
    push (Proof_size_below_floor { floor = b.budget_floor_bits; measured = s.proof_size_bits });
  List.rev !violations

let pp_phases ppf phases =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "-")
    (fun ppf ph ->
      Format.pp_print_string ppf (match ph with Prover_phase -> "P" | Verifier_phase -> "V"))
    ppf phases

let pp_budget_violation ppf = function
  | Rounds_exceeded { claimed; measured } ->
      Format.fprintf ppf "rounds exceeded: claimed %d, measured %d" claimed measured
  | Schedule_mismatch { claimed; measured } ->
      Format.fprintf ppf "schedule mismatch: claimed %a, measured %a" pp_phases claimed pp_phases
        measured
  | Proof_size_exceeded { claimed; measured } ->
      Format.fprintf ppf "proof size exceeded: claimed <= %d bits, measured %d" claimed measured
  | Proof_size_below_floor { floor; measured } ->
      Format.fprintf ppf "proof size below declared floor: >= %d bits required, measured %d" floor
        measured

type verdict = { accepted : bool; rejecting : int list }

let all_accept ~n decide =
  let rejecting = ref [] in
  for v = n - 1 downto 0 do
    if not (decide v) then rejecting := v :: !rejecting
  done;
  let accepted = match !rejecting with [] -> true | _ :: _ -> false in
  { accepted; rejecting = !rejecting }

let heard_all labels =
  let heard = Array.map Option.some labels in
  fun u -> heard.(u)

(* Round-by-round merge of two per-phase schedules: parallel repetitions
   run their rounds simultaneously, so the label sent in round i of the
   combination concatenates the round-i labels and its phase-max bits add.
   Rounds past the shorter schedule are kept as-is from the longer one. *)
(* Shared zipper for the two per-phase merges.  The shorter list must be a
   schedule prefix of the longer: merging a prover round into a verifier
   round (or vice versa) would silently mis-account bits, so a phase-kind
   mismatch is a hard [Invalid_argument]. *)
let merge_per_phase_with ~who op a b =
  let long, short = if List.length a >= List.length b then (a, b) else (b, a) in
  let rec go round l s =
    match (l, s) with
    | rest, [] -> rest
    | [], _ :: _ -> []
    | (ph, bits) :: tl, (ph', bits') :: ts ->
        if not (phase_equal ph ph') then
          invalid_arg
            (Printf.sprintf "%s: phase kind mismatch at round %d (%s vs %s)" who round
               (match ph with Prover_phase -> "P" | Verifier_phase -> "V")
               (match ph' with Prover_phase -> "P" | Verifier_phase -> "V"));
        (ph, op bits bits') :: go (round + 1) tl ts
  in
  go 1 long short

let merge_per_phase a b = merge_per_phase_with ~who:"Dip.merge_per_phase" ( + ) a b

let merge_parallel stats_list =
  match stats_list with
  | [] -> invalid_arg "Dip.merge_parallel"
  | first :: rest ->
      List.fold_left
        (fun acc s ->
          let per_phase = merge_per_phase acc.per_phase s.per_phase in
          {
            interaction_rounds = max acc.interaction_rounds s.interaction_rounds;
            proof_size_bits = acc.proof_size_bits + s.proof_size_bits;
            max_node_total_bits = acc.max_node_total_bits + s.max_node_total_bits;
            total_prover_bits = acc.total_prover_bits + s.total_prover_bits;
            total_verifier_bits = acc.total_verifier_bits + s.total_verifier_bits;
            phases =
              (if List.length acc.phases >= List.length s.phases then acc.phases else s.phases);
            per_phase;
          })
        first rest

(* Pointwise-max analogue of [merge_per_phase]: repeated trials of the
   same protocol do not concatenate labels, so the round-i phase maximum
   is the max over trials, not the sum. *)
let merge_per_phase_max a b = merge_per_phase_with ~who:"Dip.merge_per_phase_max" max a b

let merge_trials stats_list =
  match stats_list with
  | [] -> invalid_arg "Dip.merge_trials"
  | first :: rest ->
      List.fold_left
        (fun acc s ->
          {
            interaction_rounds = max acc.interaction_rounds s.interaction_rounds;
            proof_size_bits = max acc.proof_size_bits s.proof_size_bits;
            max_node_total_bits = max acc.max_node_total_bits s.max_node_total_bits;
            total_prover_bits = acc.total_prover_bits + s.total_prover_bits;
            total_verifier_bits = acc.total_verifier_bits + s.total_verifier_bits;
            phases =
              (if List.length acc.phases >= List.length s.phases then acc.phases else s.phases);
            per_phase = merge_per_phase_max acc.per_phase s.per_phase;
          })
        first rest

(* A composite protocol's stats (blocks, SP components, host ears): the
   envelope of its own meter and its sub-runs for sizes and rounds, the
   sum for the bit totals, and the top-level meter's schedule. *)
let merge_components top components =
  List.fold_left
    (fun acc s ->
      {
        acc with
        interaction_rounds = max acc.interaction_rounds s.interaction_rounds;
        proof_size_bits = max acc.proof_size_bits s.proof_size_bits;
        max_node_total_bits = max acc.max_node_total_bits s.max_node_total_bits;
        total_prover_bits = acc.total_prover_bits + s.total_prover_bits;
        total_verifier_bits = acc.total_verifier_bits + s.total_verifier_bits;
      })
    top components

let pp_stats ppf s =
  Format.fprintf ppf "rounds=%d proof=%db node-total=%db prover-total=%db coins=%db"
    s.interaction_rounds s.proof_size_bits s.max_node_total_bits s.total_prover_bits
    s.total_verifier_bits

let pp_per_phase ppf s =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    (fun ppf (ph, bits) ->
      Format.fprintf ppf "%s%d" (match ph with Prover_phase -> "P" | Verifier_phase -> "V") bits)
    ppf s.per_phase

let transcript m = List.rev m.retained_rev

let pp_transcript ?(max_nodes = 16) ppf t =
  List.iteri
    (fun round (ph, labels) ->
      Format.fprintf ppf "round %d (%s):@." (round + 1)
        (match ph with Prover_phase -> "prover" | Verifier_phase -> "verifier");
      Array.iteri
        (fun v l ->
          if v < max_nodes then
            Format.fprintf ppf "  node %3d | %s@." v
              (if Bits.length l = 0 then "-" else Bits.to_string l))
        labels;
      if Array.length labels > max_nodes then
        Format.fprintf ppf "  ... (%d more)@." (Array.length labels - max_nodes))
    t
