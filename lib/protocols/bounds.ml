(* The declared-bounds registry: one row per Gil–Parter theorem
   (Theorems 1.2–1.8 plus the Lemma 4.1 LR-sorting primitive and the
   one-round PLS baselines the Theorem 1.8 lower bound speaks about).

   Each row turns a theorem statement into something checkable:
   - [rounds] and [schedule] are exact (the paper's 5-round P-V-P-V-P
     protocols, 1-round P for the PLS baselines);
   - [envelope] is a concrete n -> max-bits upper envelope for the
     theorem's proof-size family, with constants calibrated once against
     the reference measurements (EXPERIMENTS.md) at the default soundness
     constant c = 3 — generous enough to absorb machine-level constant
     drift, tight enough that a family-level regression (log log n code
     degrading to log n) breaks it;
   - [floor], where present, is the Theorem 1.8 Omega(log n) lower bound
     a 1-round scheme cannot beat.

   The registry is read in three places: the [budget] pass of dipp-lint
   statically checks each protocol's record_prover/record_verifier
   schedule against [rounds]/[schedule]; [Dip.check_budget] cross-checks
   measured stats at runtime; and [bench/main.exe bounds] emits the
   claim-vs-measured record (bounds_report.json) that CI archives. *)

(* Envelope shapes, first-class so the static refinement pass
   (lib/analysis/refine.ml) can compare inferred symbolic label widths
   against the declared form instead of sampling an opaque closure.  The
   additive constant absorbs the O(1) setup fields (forest-encoding
   colors, tag bits, has/mark bits); the multiplier is per-field cost: a
   handful of values from fields of size polylog(n), each O(c * log log n)
   bits wide at c = 3. *)
type shape =
  | Loglog of { mult : int; add : int }  (* mult * loglog n + add *)
  | Loglog_delta of { mult : int; dmult : int; add : int }
      (* mult * loglog n + dmult * ceil_log2 (max 2 delta) + add *)
  | Log of { mult : int; add : int }  (* mult * ceil_log2 n + add *)

type row = {
  id : string;  (* protocol module basename, e.g. "lr_sorting" *)
  theorem : string;
  family : string;  (* printable proof-size family *)
  rounds : int;
  schedule : Dip.phase list;
  shape : shape;
  floor : (int -> int) option;
}

let ceil_log2 n = max 1 (Ilog.ceil_log2 n)

let loglog n = max 1 (ceil_log2 (ceil_log2 n))

let p = Dip.Prover_phase
and v = Dip.Verifier_phase

let five_round = [ p; v; p; v; p ]
let one_round = [ p ]

let eval_shape shape ~n ~delta =
  match shape with
  | Loglog { mult; add } -> (mult * loglog n) + add
  | Loglog_delta { mult; dmult; add } ->
      (mult * loglog n) + (dmult * ceil_log2 (max 2 delta)) + add
  | Log { mult; add } -> (mult * ceil_log2 n) + add

let envelope r ~n ~delta = eval_shape r.shape ~n ~delta

let omega_log n = ceil_log2 n

let rows =
  [
    {
      id = "lr_sorting";
      theorem = "Lemma 4.1";
      family = "O(log log n)";
      rounds = 5;
      schedule = five_round;
      shape = Loglog { mult = 40; add = 60 };
      floor = None;
    };
    {
      id = "path_outerplanarity";
      theorem = "Theorem 1.2";
      family = "O(log log n)";
      rounds = 5;
      schedule = five_round;
      shape = Loglog { mult = 100; add = 80 };
      floor = None;
    };
    {
      id = "outerplanarity";
      theorem = "Theorem 1.3";
      family = "O(log log n)";
      rounds = 5;
      schedule = five_round;
      shape = Loglog { mult = 100; add = 120 };
      floor = None;
    };
    {
      id = "planar_embedding";
      theorem = "Theorem 1.4";
      family = "O(log log n)";
      rounds = 5;
      schedule = five_round;
      shape = Loglog { mult = 500; add = 200 };
      floor = None;
    };
    {
      id = "planarity";
      theorem = "Theorem 1.5";
      family = "O(log log n + log Delta)";
      rounds = 5;
      schedule = five_round;
      shape = Loglog_delta { mult = 500; dmult = 40; add = 300 };
      floor = None;
    };
    {
      id = "series_parallel_dip";
      theorem = "Theorem 1.6";
      family = "O(log log n)";
      rounds = 5;
      schedule = five_round;
      shape = Loglog { mult = 80; add = 80 };
      floor = None;
    };
    {
      id = "treewidth2_dip";
      theorem = "Theorem 1.7";
      family = "O(log log n)";
      rounds = 5;
      schedule = five_round;
      shape = Loglog { mult = 80; add = 100 };
      floor = None;
    };
    (* One-round baselines: Theorem 1.8 says no 1-round scheme beats
       Omega(log n) label bits, so these carry a floor as well as an
       envelope. *)
    {
      id = "pls_lr_sorting";
      theorem = "Theorem 1.8 / trivial PLS";
      family = "Theta(log n)";
      rounds = 1;
      schedule = one_round;
      shape = Log { mult = 1; add = 1 };
      floor = Some omega_log;
    };
    {
      id = "pls_path_outerplanar";
      theorem = "Theorem 1.8 / FFM+21-style PLS";
      family = "Theta(log n)";
      rounds = 1;
      schedule = one_round;
      shape = Log { mult = 4; add = 8 };
      floor = Some omega_log;
    };
    {
      id = "pls_spanning_tree";
      theorem = "Theorem 1.8 / distance PLS";
      family = "Theta(log n)";
      rounds = 1;
      schedule = one_round;
      shape = Log { mult = 2; add = 4 };
      floor = Some omega_log;
    };
  ]

let find id = List.find_opt (fun r -> String.equal r.id id) rows

let budget r ~n ~delta =
  {
    Dip.budget_rounds = r.rounds;
    budget_schedule = r.schedule;
    budget_proof_bits = envelope r ~n ~delta;
    budget_floor_bits = (match r.floor with Some f -> f n | None -> 0);
  }

(* Under Flat, the cursor is preallocated to the row's envelope so a
   reset-reused node encoder never climbs the grow ladder. *)
let label_encoder codec id ~n ~delta =
  let capacity =
    match find id with Some row -> envelope row ~n ~delta:(max 2 delta) | None -> 64
  in
  Bits_flat.Enc.create codec ~capacity 64
