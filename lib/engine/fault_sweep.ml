module Gen = Dipp_gen.Gen
module Net = Dipp_net.Net
module Fault = Dipp_net.Fault
module Net_protocols = Dipp_net.Net_protocols
module Family = Dipp_trace.Family

let seed_bound = 0x3FFF_FFFF
let draw_seed rng = Rng.int rng seed_bound

type family = { fam_id : string; build : Rng.t -> Net.protocol }

let draw_list rng k bound =
  let rec go i acc = if i = k then List.rev acc else go (i + 1) (Rng.int rng bound :: acc) in
  go 0 []

(* ---- the protocol families under test -------------------------------- *)

let pls_family ~n =
  {
    fam_id = Printf.sprintf "pls-spanning-tree/n%d" n;
    build =
      (fun rng ->
        let g = Gen.planar ~n (draw_seed rng) in
        Net_protocols.pls_spanning_tree ~graph:g ~parent:(Traversal.tree_parent g 0));
  }

let st_family ~n ~reps =
  {
    fam_id = Printf.sprintf "st-verify/n%d" n;
    build =
      (fun rng ->
        let g = Gen.planar ~n (draw_seed rng) in
        Net_protocols.st_verify ~reps ~seed:(draw_seed rng) g ~parent:(Traversal.tree_parent g 0));
  }

let mseq_family ~n =
  {
    fam_id = Printf.sprintf "multiset-eq/n%d" n;
    build =
      (fun rng ->
        let g = Gen.planar ~n (draw_seed rng) in
        let parent = Traversal.tree_parent g 0 in
        let tree_edges = ref [] in
        Array.iteri (fun v p -> if p >= 0 then tree_edges := (v, p) :: !tree_edges) parent;
        let tree = Graph.create ~n !tree_edges in
        let universe = 64 in
        let s1 = Array.make n [] in
        for v = 0 to n - 1 do
          s1.(v) <- draw_list rng (Rng.int rng 4) universe
        done;
        (* s2: the same global multiset, redistributed over the nodes with
           the same per-node sizes — equal unions, honest accept *)
        let all = Array.of_list (List.concat (Array.to_list s1)) in
        Rng.shuffle rng all;
        let pos = ref 0 in
        let s2 =
          Array.map
            (fun l ->
              let k = List.length l in
              let chunk = Array.sub all !pos k in
              pos := !pos + k;
              Array.to_list chunk)
            s1
        in
        let k = max 2 (Array.length all) in
        Net_protocols.multiset_eq ~seed:(draw_seed rng)
          { Multiset_equality.tree; parent; s1; s2; k; universe });
  }

(* An honest run of a table family shipped over the checksummed
   transport; [name] is both the point id prefix and the transport name.
   [gseed] is drawn before [seed]: that draw order fixes each trial's
   instance and coins, hence faults_report.json. *)
let honest_family fam ~name ~n =
  {
    fam_id = Printf.sprintf "%s/n%d" name n;
    build =
      (fun rng ->
        let gseed = draw_seed rng in
        let seed = draw_seed rng in
        let inst = fam.Family.build ~n ~gseed in
        let verdict, stats = Family.honest fam inst ~seed in
        Net_protocols.transport ~name ~graph:(inst.Family.graph ()) ~stats ~verdict);
  }

let lr_family ~n = honest_family Family.lr ~name:"lr-sorting" ~n
let po_family ~n = honest_family Family.path_outerplanarity ~name:"path-outerplanarity" ~n
let planarity_family ~n = honest_family Family.planarity ~name:"planarity" ~n

let default_families () =
  [
    pls_family ~n:200;
    st_family ~n:150 ~reps:3;
    mseq_family ~n:150;
    lr_family ~n:120;
    po_family ~n:120;
    planarity_family ~n:64;
  ]

(* ---- the sweep grid --------------------------------------------------- *)

type mode = Strict | Degrade

let mode_name = function Strict -> "strict" | Degrade -> "degrade"
let quorum = 0.8

let default_rates = [ 0.0; 0.05; 0.15; 0.3 ]

let model_ctors =
  [
    ("drop", fun rate -> Fault.drop ~rate);
    ("corrupt", fun rate -> Fault.corrupt ~rate);
    ("delay", fun rate -> Fault.delay ~rate ());
    ("duplicate", fun rate -> Fault.duplicate ~rate);
    ("crash", fun rate -> Fault.crash ~rate);
  ]

let default_trials () =
  match Sys.getenv_opt "DIPP_FAULTS_TRIALS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some v when v >= 1 -> v | Some _ | None -> 24)
  | None -> 24

type point = {
  fam : string;
  fault : string;
  rate : float;
  mode : string;
  trials : int;
  accepted : int;
  sent : int;
  delivered : int;
  dropped : int;
  corrupted : int;
  duplicated : int;
  late : int;
  retransmits : int;
  crashed : int;
  heard : float;
}

let acceptance_rate p = if p.trials = 0 then 0. else float_of_int p.accepted /. float_of_int p.trials

let run_point ?jobs ~seed fam model rate mode trials =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let id = Printf.sprintf "%s|%s|%.4f|%s" fam.fam_id model.Fault.name rate (mode_name mode) in
  let root = Rng.split_string (Rng.create seed) id in
  (* Instances come from a family-keyed stream shared by every grid point,
     so trial i sees the same instance under every (fault, rate, mode) —
     which is what lets the label cache serve the repeated honest runs.
     Fault draws stay on the point-keyed stream. *)
  let inst_root = Rng.split_string (Rng.create seed) ("inst|" ^ fam.fam_id) in
  let nmode = match mode with Strict -> Net.Strict | Degrade -> Net.Degrade { quorum } in
  let runs =
    Pool.run ~jobs trials (fun i ->
        let proto = fam.build (Rng.split inst_root i) in
        Net.execute ~mode:nmode ~rng:(Rng.split root i) ~model proto)
  in
  (* fold in index order: the point must not depend on completion order *)
  let p =
    ref
      {
        fam = fam.fam_id;
        fault = model.Fault.name;
        rate;
        mode = mode_name mode;
        trials;
        accepted = 0;
        sent = 0;
        delivered = 0;
        dropped = 0;
        corrupted = 0;
        duplicated = 0;
        late = 0;
        retransmits = 0;
        crashed = 0;
        heard = 0.;
      }
  in
  Array.iter
    (fun (r : Net.result) ->
      let s = r.Net.stats in
      p :=
        {
          !p with
          accepted = (!p).accepted + (if r.Net.accepted then 1 else 0);
          sent = (!p).sent + s.Net.sent;
          delivered = (!p).delivered + s.Net.delivered;
          dropped = (!p).dropped + s.Net.dropped;
          corrupted = (!p).corrupted + s.Net.corrupted;
          duplicated = (!p).duplicated + s.Net.duplicated;
          late = (!p).late + s.Net.late;
          retransmits = (!p).retransmits + s.Net.retransmits;
          crashed = (!p).crashed + List.length r.Net.crashed_nodes;
          heard = (!p).heard +. r.Net.heard;
        })
    runs;
  { !p with heard = (if trials = 0 then 0. else (!p).heard /. float_of_int trials) }

type sweep = {
  families : family list;
  rates : float list;
  models : (string * (float -> Fault.model)) list;
  modes : mode list;
  trials : int;
}

let default_sweep () =
  {
    families = default_families ();
    rates = default_rates;
    models = model_ctors;
    modes = [ Strict; Degrade ];
    trials = default_trials ();
  }

let run_sweep ?jobs ~seed sw =
  List.concat_map
    (fun fam ->
      List.concat_map
        (fun (_, ctor) ->
          List.concat_map
            (fun rate ->
              List.map
                (fun mode -> run_point ?jobs ~seed fam (ctor rate) rate mode sw.trials)
                sw.modes)
            sw.rates)
        sw.models)
    sw.families

(* ---- faults_report.json ----------------------------------------------- *)

let report_string ~seed points =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf "{\"seed\": %d, \"quorum\": %.2f, \"sweep\": [" seed quorum);
  List.iteri
    (fun i p ->
      let lo, hi = Engine.wilson95 ~rejected:p.accepted ~total:p.trials in
      Buffer.add_string b
        (Printf.sprintf
           "%s\n\
           \  {\"family\": \"%s\", \"fault\": \"%s\", \"rate\": %.4f, \"mode\": \"%s\",\n\
           \   \"trials\": %d, \"accepted\": %d, \"acceptance_rate\": %.6f, \"ci95_low\": \
            %.6f, \"ci95_high\": %.6f,\n\
           \   \"sent\": %d, \"delivered\": %d, \"dropped\": %d, \"corrupted\": %d, \
            \"duplicated\": %d,\n\
           \   \"late\": %d, \"retransmits\": %d, \"crashed_nodes\": %d, \"mean_heard\": %.6f}"
           (if i = 0 then "" else ",")
           (Json.escape p.fam) (Json.escape p.fault) p.rate (Json.escape p.mode) p.trials p.accepted (acceptance_rate p) lo hi p.sent
           p.delivered p.dropped p.corrupted p.duplicated p.late p.retransmits p.crashed p.heard))
    points;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_report ~path ~seed points =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (report_string ~seed points))

let print_table points =
  Printf.printf "%-26s %-10s %6s %-8s %7s %9s %8s %7s %6s %7s\n" "family" "fault" "rate" "mode"
    "accept" "sent" "dropped" "corrupt" "late" "heard";
  List.iter
    (fun p ->
      Printf.printf "%-26s %-10s %6.2f %-8s %3d/%-3d %9d %8d %7d %6d %6.1f%%\n" p.fam p.fault
        p.rate p.mode p.accepted p.trials p.sent p.dropped p.corrupted p.late (100. *. p.heard))
    points
