(* The transcript corpus registry: one pinned honest instance per
   experiment E1-E8, each a row over the family table ({!Family}), able
   to record a trace on either runtime and to replay a recorded trace
   against itself.

   Instances are pinned by constants (generator seed, size) independent
   of the run seed, so a trace names everything needed to reproduce it:
   the experiment id picks the registry row (hence the instance), the
   recorded seed re-drives the coins.  Replay is decision-only where the
   family instance carries a [decide] (LR-sorting, E1/E2) and for every
   network trace (Net.replay_check); the composite protocols (E3-E8,
   synchronous runtime) replay by deterministic re-execution and a
   byte-level diff of the full trace. *)

open Dipp_net

type entry = { id : string; family : Family.t; n : int; gseed : int; recipe : string }
type replay_report = { mode : string; verdict : Dip.verdict }

(* ---- the eight experiments -------------------------------------------- *)

(* [recipe] is written into the trace bytes, so it stays a literal; the
   block-built E4/E8 are pinned at n = 32, i.e. 4 blocks. *)
let entries =
  List.map
    (fun (id, family, n, gseed, recipe) -> { id; family; n; gseed; recipe })
    [
      ("E1", Family.lr, 128, 42, "lr_yes n=128 gseed=42");
      ("E2", Family.lr, 300, 42, "lr_yes n=300 gseed=42");
      ("E3", Family.path_outerplanarity, 200, 11, "path_outerplanar n=200 gseed=11");
      ("E4", Family.outerplanarity, 32, 3, "outerplanar blocks=4 gseed=3");
      ("E5", Family.planar_embedding, 64, 5, "planar n=64 gseed=5 + embedding");
      ("E6", Family.planarity, 64, 5, "planar n=64 gseed=5");
      ("E7", Family.series_parallel, 64, 3, "series_parallel size=64 gseed=3");
      ("E8", Family.treewidth2, 32, 3, "treewidth2 blocks=4 gseed=3");
    ]

let find id = List.find_opt (fun e -> String.equal e.id id) entries
let ids = List.map (fun e -> e.id) entries
let instance e = e.family.Family.build ~n:e.n ~gseed:e.gseed

(* ---- record ----------------------------------------------------------- *)

let net_transport e graph (r : Family.run) =
  Net_protocols.transport ~name:e.family.Family.protocol ~graph ~stats:r.Family.stats
    ~verdict:r.Family.verdict

let record_instance ~runtime e inst ~seed =
  let r = inst.Family.run ~retain:true ~seed in
  let graph = inst.Family.graph () in
  let n = Graph.n graph in
  let frames, verdict =
    match runtime with
    | Trace.Dip_runtime -> (r.Family.frames, r.Family.verdict)
    | Trace.Net_runtime ->
        let proto = net_transport e graph r in
        let res = Net.execute ~rng:(Rng.create seed) ~model:Fault.reliable proto in
        ( Array.to_list (Array.map (fun round -> (Dip.Prover_phase, round)) proto.Net.rounds),
          { Dip.accepted = res.Net.accepted; rejecting = res.Net.rejecting } )
  in
  {
    Trace.experiment = e.id;
    protocol = e.family.Family.protocol;
    runtime;
    recipe = e.recipe;
    graph_digest = Trace.graph_digest graph;
    seed;
    n;
    stats = r.Family.stats;
    frames;
    verdicts = Trace.verdicts_of_verdict ~n verdict;
  }

let record ?(runtime = Trace.Dip_runtime) e ~seed = record_instance ~runtime e (instance e) ~seed

(* ---- replay ----------------------------------------------------------- *)

let same_verdict (a : Dip.verdict) (b : Dip.verdict) =
  a.Dip.accepted = b.Dip.accepted && a.Dip.rejecting = b.Dip.rejecting

let verdict_divergence ~replayed ~recorded =
  Printf.sprintf "replayed verdict diverges from the recorded one: %s vs %s"
    (if replayed.Dip.accepted then "accept" else
       "reject by " ^ String.concat "," (List.map string_of_int replayed.Dip.rejecting))
    (if recorded.Dip.accepted then "accept" else
       "reject by " ^ String.concat "," (List.map string_of_int recorded.Dip.rejecting))

let prover_rows (s : Dip.stats) =
  List.filter (fun (ph, _) -> ph = Dip.Prover_phase) s.Dip.per_phase

let replay_net entry inst t =
  let proto =
    net_transport entry (inst.Family.graph ()) (inst.Family.run ~retain:true ~seed:t.Trace.seed)
  in
  let recorded = Array.of_list t.Trace.frames in
  if Array.exists (fun (ph, _) -> ph <> Dip.Prover_phase) recorded then
    Error "a network trace must contain only prover round payloads"
  else if Array.length recorded <> Array.length proto.Net.rounds then
    Error
      (Printf.sprintf "round counts differ: trace has %d, protocol ships %d"
         (Array.length recorded) (Array.length proto.Net.rounds))
  else begin
    let bad = ref None in
    Array.iteri
      (fun r (_, arr) ->
        if !bad = None then
          if Array.length arr <> Array.length proto.Net.rounds.(r) then
            bad := Some (Printf.sprintf "round %d: label counts differ" r)
          else
            Array.iteri
              (fun v b ->
                if !bad = None && not (Bits.equal b proto.Net.rounds.(r).(v)) then
                  bad := Some (Printf.sprintf "round %d: node %d payload differs" r v))
              arr)
      recorded;
    match !bad with
    | Some msg -> Error msg
    | None ->
        let frames = Array.map snd recorded in
        let verdict = Net.replay_check proto ~frames in
        let rec_verdict = Trace.verdict_of t in
        if not (same_verdict verdict rec_verdict) then
          Error (verdict_divergence ~replayed:verdict ~recorded:rec_verdict)
        else if
          (* every shipped payload is the per-phase envelope, so the round
             maxima must reproduce the prover rows of the recorded stats *)
          Trace.phase_maxima t.Trace.frames <> prover_rows t.Trace.stats
        then Error "per-phase bit counts do not match the recorded frames"
        else Ok { mode = "decision-only (net)"; verdict }
  end

let replay_dip entry inst t =
  match inst.Family.decide with
  | Some decide -> (
      match decide t.Trace.frames with
      | Error e -> Error ("decision replay failed: " ^ e)
      | Ok verdict ->
          let recorded = Trace.verdict_of t in
          if not (same_verdict verdict recorded) then
            Error (verdict_divergence ~replayed:verdict ~recorded)
          else if Trace.phase_maxima t.Trace.frames <> t.Trace.stats.Dip.per_phase then
            Error "per-phase bit counts do not match the recorded frames"
          else Ok { mode = "decision-only"; verdict })
  | None -> (
      let fresh = record_instance ~runtime:Trace.Dip_runtime entry inst ~seed:t.Trace.seed in
      match Trace.diff t fresh with
      | Some d -> Error ("re-execution diverges: " ^ d)
      | None -> Ok { mode = "re-execution"; verdict = Trace.verdict_of t })

let replay t =
  match find t.Trace.experiment with
  | None -> Error (Printf.sprintf "unknown experiment id %S" t.Trace.experiment)
  | Some entry ->
      let protocol = entry.family.Family.protocol in
      let inst = instance entry in
      if not (String.equal t.Trace.protocol protocol) then
        Error
          (Printf.sprintf "trace names protocol %S but %s is %S" t.Trace.protocol entry.id protocol)
      else if not (String.equal t.Trace.graph_digest (Trace.graph_digest (inst.Family.graph ())))
      then Error "graph digest mismatch: the registry instance is not the recorded one"
      else begin
        match t.Trace.runtime with
        | Trace.Dip_runtime -> replay_dip entry inst t
        | Trace.Net_runtime -> replay_net entry inst t
      end
