(* The fault-injecting network runtime (lib/net) and its sweep layer.

   Contracts under test:
   - completeness: with a reliable network every honest protocol accepts,
     in both fidelity tiers (semantic adapters and the checksummed
     transport wrapper), in both decision modes;
   - fault semantics: total drop starves Strict but not a quorum-free
     Degrade; total corruption flips semantic decisions but is absorbed by
     the checksummed transport; a certain crash kills acceptance; a larger
     retry budget recovers more frames;
   - determinism: a run is a pure function of (protocol, config, model,
     seed), and the sweep report is byte-identical across worker counts;
     a transmission's or crash's stream, derived only when it draws,
     gives the draws of an eager derivation;
   - preconditions: a config outside the engine's limits (net.mli) raises
     Invalid_argument before any event runs. *)

let seed = 1234

let planar_instance n =
  let g = Gen.planar ~n 7 in
  let parent = Traversal.tree_parent g 0 in
  (g, parent)

let protocols () =
  let g, parent = planar_instance 60 in
  [
    Net_protocols.pls_spanning_tree ~graph:g ~parent;
    Net_protocols.st_verify ~reps:3 ~seed:5 g ~parent;
    (let r = Planarity.run ~seed:3 ~prover:Planarity.Honest { Planarity.graph = g } in
     Net_protocols.transport ~name:"planarity" ~graph:g ~stats:r.Planarity.stats
       ~verdict:r.Planarity.verdict);
  ]

(* ---- completeness on a reliable network ------------------------------- *)

let test_reliable_completeness () =
  List.iter
    (fun proto ->
      List.iter
        (fun mode ->
          let r =
            Net.execute ~mode ~rng:(Rng.create seed) ~model:Fault.reliable proto
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s accepts on a reliable network" proto.Net.name)
            true r.Net.accepted;
          Alcotest.(check (list int))
            (Printf.sprintf "%s: no rejecting nodes" proto.Net.name)
            [] r.Net.rejecting;
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s: full neighborhoods heard" proto.Net.name)
            1.0 r.Net.heard;
          Alcotest.(check int)
            (Printf.sprintf "%s: nothing dropped" proto.Net.name)
            0 r.Net.stats.Net.dropped)
        [ Net.Strict; Net.Degrade { quorum = 0.8 } ])
    (protocols ())

let test_mseq_adapter_completeness () =
  let g, parent = planar_instance 40 in
  let tree_edges = ref [] in
  Array.iteri (fun v p -> if p >= 0 then tree_edges := (v, p) :: !tree_edges) parent;
  let tree = Graph.create ~n:(Graph.n g) !tree_edges in
  let s1 = Array.init (Graph.n g) (fun v -> [ v mod 7; (v * 3) mod 7 ]) in
  let s2 = Array.map List.rev s1 in
  let inst = { Multiset_equality.tree; parent; s1; s2; k = 2; universe = 7 } in
  let proto = Net_protocols.multiset_eq ~seed:9 inst in
  let r = Net.execute ~rng:(Rng.create seed) ~model:Fault.reliable proto in
  Alcotest.(check bool) "multiset-eq accepts on a reliable network" true r.Net.accepted

(* ---- one check: the adapters run the synchronous protocols' checks ----- *)

(* A BFS tree from a random root with a few entries re-pointed along
   random G-edges or cut to -1: pointer cycles and extra roots appear,
   and no parent leaves N(v). *)
let cheating_parent g rng =
  let n = Graph.n g in
  let parent = Traversal.tree_parent g (Rng.int rng n) in
  for _ = 1 to Rng.int rng 4 do
    let v = Rng.int rng n in
    let nbrs = Graph.neighbors g v in
    parent.(v) <-
      (if Rng.int rng 3 = 0 || Array.length nbrs = 0 then -1
       else nbrs.(Rng.int rng (Array.length nbrs)))
  done;
  parent

(* Multisets over the graph with [parent] as the claimed tree: s2 is s1
   redistributed (equal unions) or, half the time, s1 with one element
   changed. *)
let mseq_instance g parent rng =
  let n = Graph.n g in
  let universe = 16 in
  let s1 = Array.init n (fun _ -> List.init (Rng.int rng 3) (fun _ -> Rng.int rng universe)) in
  let all = Array.of_list (List.concat (Array.to_list s1)) in
  Rng.shuffle rng all;
  if Array.length all > 0 && Rng.int rng 2 = 0 then all.(0) <- (all.(0) + 1) mod universe;
  let pos = ref 0 in
  let s2 =
    Array.map
      (fun l ->
        let chunk = Array.to_list (Array.sub all !pos (List.length l)) in
        pos := !pos + List.length l;
        chunk)
      s1
  in
  { Multiset_equality.tree = g; parent; s1; s2; k = max 2 (Array.length all); universe }

(* (network adapter, synchronous verdict) pairs on one instance *)
let adapter_pairs ~n ~gseed ~seed =
  let rng = Rng.create gseed in
  (* QCheck's int_range shrinker may step below the range *)
  let g = Gen.planar ~n:(max 4 n) (Rng.int rng 1000) in
  let parent = cheating_parent g rng in
  let reps = 1 + Rng.int rng 3 in
  let inst = mseq_instance g parent rng in
  [
    ( Net_protocols.pls_spanning_tree ~graph:g ~parent,
      (Pls_spanning_tree.run g ~parent).Pls_spanning_tree.verdict );
    ( Net_protocols.st_verify ~reps ~seed g ~parent,
      fst (Spanning_tree_verify.run ~seed ~reps g ~parent) );
    (Net_protocols.multiset_eq ~seed inst, fst (Multiset_equality.run ~seed inst));
  ]

let prop_reliable_net_equals_sync =
  QCheck.Test.make ~name:"reliable Net verdict = synchronous verdict (pls, st, mseq)" ~count:60
    QCheck.(triple (int_range 4 40) (int_bound 100_000) (int_bound 100_000))
    (fun (n, gseed, seed) ->
      List.for_all
        (fun (proto, (sync : Dip.verdict)) ->
          let r = Net.execute ~rng:(Rng.create seed) ~model:Fault.reliable proto in
          Bool.equal r.Net.accepted sync.Dip.accepted
          && List.equal Int.equal r.Net.rejecting sync.Dip.rejecting
          ||
          QCheck.Test.fail_reportf "%s: net %b %s, sync %b %s" proto.Net.name r.Net.accepted
            (String.concat "," (List.map string_of_int r.Net.rejecting))
            sync.Dip.accepted
            (String.concat "," (List.map string_of_int sync.Dip.rejecting)))
        (adapter_pairs ~n ~gseed ~seed))

(* One heard frame bit-flipped, truncated or extended, the others intact:
   node_check returns a bool, and a frame that no longer parses rejects. *)
let prop_mutated_frame_never_raises =
  QCheck.Test.make ~name:"node_check on a flipped/truncated/extended frame never raises" ~count:150
    QCheck.(quad (int_range 4 30) (int_bound 100_000) (int_bound 2) (int_bound 100_000))
    (fun (n, gseed, kind, pick) ->
      List.for_all
        (fun (proto, _) ->
          let frames = proto.Net.rounds.(0) in
          let v = pick mod Graph.n proto.Net.graph in
          let nbrs = Graph.neighbors proto.Net.graph v in
          if Array.length nbrs = 0 then true
          else begin
            let u = nbrs.(pick mod Array.length nbrs) in
            let b = frames.(u) in
            let len = Bits.length b in
            let mutated =
              match kind with
              | 0 when len > 0 ->
                  let i = pick mod len in
                  Bits.concat
                    [ Bits.sub b ~pos:0 ~len:i; Bits.of_bool (not (Bits.get b i));
                      Bits.sub b ~pos:(i + 1) ~len:(len - i - 1) ]
              | 1 when len > 0 -> Bits.sub b ~pos:0 ~len:(pick mod len)
              | _ -> Bits.append b (Bits.of_int ~width:(1 + (pick mod 5)) 0)
            in
            let recv w = Some [| (if w = u then mutated else frames.(w)) |] in
            match proto.Net.node_check v recv with
            | verdict -> kind = 0 || not verdict
            | exception e ->
                QCheck.Test.fail_reportf "%s: node_check raised %s" proto.Net.name
                  (Printexc.to_string e)
          end)
        (adapter_pairs ~n ~gseed ~seed:pick))

let test_mseq_z_echo () =
  let g, parent = planar_instance 30 in
  let inst = mseq_instance g parent (Rng.create 3) in
  let proto = Net_protocols.multiset_eq ~seed:9 inst in
  let frames = proto.Net.rounds.(0) in
  let v = 5 and p = parent.(5) in
  let field = Multiset_equality.field inst in
  let echo z =
    let decode b = Option.get (Multiset_equality.label_of_bits ~field b) in
    let labels = Array.map decode frames in
    labels.(p) <- { (labels.(p)) with Multiset_equality.z };
    (Multiset_equality.labels_to_bits inst labels).(p)
  in
  let z = (Option.get (Multiset_equality.label_of_bits ~field frames.(p))).Multiset_equality.z in
  let check zp =
    proto.Net.node_check v (fun w -> Some [| (if w = p then echo zp else frames.(w)) |])
  in
  Alcotest.(check bool) "parent's own z echo: the check passes" true (check z);
  Alcotest.(check bool) "corrupted parent z echo rejects" false (check ((z + 1) mod field.Fp.p))

(* ---- fault semantics --------------------------------------------------- *)

let test_total_drop () =
  let g, parent = planar_instance 60 in
  let proto = Net_protocols.pls_spanning_tree ~graph:g ~parent in
  let strict =
    Net.execute ~mode:Net.Strict ~rng:(Rng.create seed) ~model:(Fault.drop ~rate:1.0) proto
  in
  Alcotest.(check bool) "strict: total drop rejects" false strict.Net.accepted;
  Alcotest.(check (float 1e-9)) "nothing heard" 0.0 strict.Net.heard;
  (* with no quorum requirement, nodes decide from what arrived — here
     nothing, so every check degrades to vacuous truth *)
  let degrade =
    Net.execute
      ~mode:(Net.Degrade { quorum = 0.0 })
      ~rng:(Rng.create seed) ~model:(Fault.drop ~rate:1.0) proto
  in
  Alcotest.(check bool) "degrade quorum=0: total drop accepts" true degrade.Net.accepted

let test_total_corruption_semantic_vs_checksum () =
  let g, parent = planar_instance 60 in
  let model = Fault.corrupt ~rate:1.0 in
  (* semantic tier: every frame arrives with a flipped bit, the decoded
     depth disagrees with the parent, the proof fails *)
  let semantic = Net_protocols.pls_spanning_tree ~graph:g ~parent in
  let r = Net.execute ~rng:(Rng.create seed) ~model semantic in
  Alcotest.(check bool) "semantic: total corruption rejects" false r.Net.accepted;
  Alcotest.(check bool) "corruption was injected" true (r.Net.stats.Net.corrupted > 0);
  (* transport tier: the frame check discards every corrupted copy, and
     with corruption certain no retransmission can get a clean frame
     through — Strict starves *)
  let pr = Planarity.run ~seed:3 ~prover:Planarity.Honest { Planarity.graph = g } in
  let wrapped =
    Net_protocols.transport ~name:"planarity" ~graph:g ~stats:pr.Planarity.stats
      ~verdict:pr.Planarity.verdict
  in
  let r = Net.execute ~mode:Net.Strict ~rng:(Rng.create seed) ~model wrapped in
  Alcotest.(check bool) "checksum: certain corruption starves strict" false r.Net.accepted;
  Alcotest.(check (float 1e-9)) "no corrupted frame was recorded" 0.0 r.Net.heard;
  (* at a recoverable rate a large enough retry budget pushes a clean copy
     of every frame through (0.2^8 per-message starvation odds) *)
  let config = { Net.default_config with Net.retries = 7; Net.deadline = 1000 } in
  let r =
    Net.execute ~config ~mode:Net.Strict ~rng:(Rng.create seed)
      ~model:(Fault.corrupt ~rate:0.2) wrapped
  in
  Alcotest.(check bool) "checksum: 20% corruption is absorbed" true r.Net.accepted

let test_certain_crash () =
  let g, parent = planar_instance 60 in
  let proto = Net_protocols.pls_spanning_tree ~graph:g ~parent in
  let r = Net.execute ~rng:(Rng.create seed) ~model:(Fault.crash ~rate:1.0) proto in
  Alcotest.(check bool) "everyone crashes: rejected" false r.Net.accepted;
  Alcotest.(check int) "all nodes crashed" (Graph.n g) (List.length r.Net.crashed_nodes)

let test_retries_recover_frames () =
  let g, parent = planar_instance 60 in
  let proto = Net_protocols.pls_spanning_tree ~graph:g ~parent in
  let heard_with retries =
    let config = { Net.default_config with Net.retries } in
    (Net.execute ~config ~rng:(Rng.create seed) ~model:(Fault.drop ~rate:0.3) proto).Net.heard
  in
  let none = heard_with 0 and many = heard_with 4 in
  Alcotest.(check bool)
    (Printf.sprintf "retries recover frames (%.3f -> %.3f)" none many)
    true (many > none)

(* ---- determinism ------------------------------------------------------- *)

let test_execute_deterministic () =
  let g, parent = planar_instance 60 in
  let proto = Net_protocols.st_verify ~reps:3 ~seed:5 g ~parent in
  let run () =
    let r = Net.execute ~rng:(Rng.create seed) ~model:(Fault.chaos ~rate:0.1) proto in
    Format.asprintf "%b %a %a" r.Net.accepted
      (Format.pp_print_list Format.pp_print_int)
      r.Net.rejecting Net.pp_stats r.Net.stats
  in
  Alcotest.(check string) "same seed, same execution" (run ()) (run ())

let sweep_report jobs =
  let fam = Fault_sweep.pls_family ~n:40 in
  let points =
    List.concat_map
      (fun rate ->
        [
          Fault_sweep.run_point ~jobs ~seed fam (Fault.drop ~rate) rate Fault_sweep.Strict 6;
          Fault_sweep.run_point ~jobs ~seed fam (Fault.crash ~rate) rate Fault_sweep.Degrade 6;
        ])
      [ 0.0; 0.2 ]
  in
  Fault_sweep.report_string ~seed points

let test_sweep_identical_across_jobs () =
  let r1 = sweep_report 1 in
  Alcotest.(check string) "jobs=2 byte-identical to jobs=1" r1 (sweep_report 2);
  Alcotest.(check string) "jobs=4 byte-identical to jobs=1" r1 (sweep_report 4)

let test_zero_rate_sweep_accepts () =
  List.iter
    (fun fam ->
      List.iter
        (fun (_, ctor) ->
          let p =
            Fault_sweep.run_point ~jobs:2 ~seed fam (ctor 0.0) 0.0 Fault_sweep.Strict 4
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s at rate 0: all honest runs accept" p.Fault_sweep.fam
               p.Fault_sweep.fault)
            p.Fault_sweep.trials p.Fault_sweep.accepted)
        Fault_sweep.model_ctors)
    [ Fault_sweep.pls_family ~n:40; Fault_sweep.st_family ~n:30 ~reps:2;
      Fault_sweep.planarity_family ~n:30 ]

(* ---- preconditions ------------------------------------------------------ *)

let test_preconditions () =
  let g, parent = planar_instance 20 in
  let proto = Net_protocols.pls_spanning_tree ~graph:g ~parent in
  (* node_check runs only after the events drain; it must never be reached *)
  let checks = ref 0 in
  let proto =
    { proto with Net.node_check = (fun v recv -> incr checks; proto.Net.node_check v recv) }
  in
  List.iter
    (fun (what, config) ->
      let raised =
        match Net.execute ~config ~rng:(Rng.create seed) ~model:Fault.reliable proto with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) (what ^ " raises Invalid_argument") true raised)
    [
      ("retries = 15", { Net.default_config with Net.retries = 15 });
      ("latency = 0", { Net.default_config with Net.latency = 0 });
    ];
  Alcotest.(check int) "no node decided" 0 !checks

(* ---- fault streams: lazy derivation ----------------------------------- *)

(* The eager reference: every transmission and node derives its stream up
   front, whether or not it draws. *)
module Eager = struct
  let million = 1_000_000

  let chance rng p =
    if p <= 0. then false
    else if p >= 1. then true
    else Rng.int rng million < int_of_float (p *. float_of_int million)

  let flip_bit b i =
    let s = Bytes.of_string (Bits.to_string b) in
    Bytes.set s i (match Bytes.get s i with '0' -> '1' | _ -> '0');
    Bits.of_string (Bytes.to_string s)

  let transmit ~rng ~link ~ix ~now ~latency (m : Fault.model) payload =
    let s = Rng.split_string rng (Printf.sprintf "%s#%d" link ix) in
    if chance s m.Fault.drop then
      { Fault.deliveries = []; was_dropped = true; was_duplicated = false }
    else begin
      let dup = chance s m.Fault.duplicate in
      let copy () =
        let corrupted = chance s m.Fault.corrupt && Bits.length payload > 0 in
        let payload =
          if corrupted then flip_bit payload (Rng.int s (Bits.length payload)) else payload
        in
        let extra =
          if m.Fault.max_delay > 0 && chance s m.Fault.delay then 1 + Rng.int s m.Fault.max_delay
          else 0
        in
        { Fault.at = now + latency + extra; payload; corrupted }
      in
      let first = copy () in
      let deliveries = if dup then [ first; copy () ] else [ first ] in
      { Fault.deliveries; was_dropped = false; was_duplicated = dup }
    end

  let crash_round ~rng ~node ~rounds (m : Fault.model) =
    if rounds <= 0 then None
    else
      let s = Rng.split_string rng (Printf.sprintf "crash#%d" node) in
      if chance s m.Fault.crash then Some (Rng.int s rounds) else None
end

let render_outcome (o : Fault.outcome) =
  Printf.sprintf "drop=%b dup=%b [%s]" o.Fault.was_dropped o.Fault.was_duplicated
    (String.concat "; "
       (List.map
          (fun (d : Fault.delivery) ->
            Printf.sprintf "%d %s %b" d.Fault.at (Bits.to_string d.Fault.payload) d.Fault.corrupted)
          o.Fault.deliveries))

let fault_case_arb =
  let rate = QCheck.Gen.oneofl [ 0.; 0.05; 0.3; 1. ] in
  let model =
    QCheck.Gen.(
      map
        (fun ((drop, corrupt, duplicate), (delay, crash, max_delay)) ->
          { Fault.name = "drawn"; drop; corrupt; duplicate; delay; max_delay; crash })
        (pair (triple rate rate rate) (triple rate rate (oneofl [ 0; 4; 64 ]))))
  in
  QCheck.make
    ~print:(fun (m, (src, dst, ix), (seed, now, payload), rounds) ->
      Format.asprintf "%a src=%d dst=%d ix=%d seed=%d now=%d payload=%s rounds=%d" Fault.pp m
        src dst ix seed now payload rounds)
    QCheck.Gen.(
      quad model
        (triple (int_bound 100_000) (int_bound 100_000) (int_bound 40))
        (triple (int_bound 10_000) (int_bound 500)
           (string_size ~gen:(oneofl [ '0'; '1' ]) (int_bound 40)))
        (int_bound 6))

let prop_lazy_streams_match_eager =
  QCheck.Test.make ~name:"transmit/crash_round: lazy streams give the eager draws" ~count:2000
    fault_case_arb (fun (m, (src, dst, ix), (seed, now, payload), rounds) ->
      let rng = Rng.create seed in
      let payload = Bits.of_string payload in
      let lazy_o = Fault.transmit ~rng ~src ~dst ~ix ~now ~latency:2 m payload in
      let eager_o =
        Eager.transmit ~rng ~link:(Printf.sprintf "%d>%d" src dst) ~ix ~now ~latency:2 m payload
      in
      let lazy_c = Fault.crash_round ~rng ~node:src ~rounds m in
      let eager_c = Eager.crash_round ~rng ~node:src ~rounds m in
      if render_outcome lazy_o <> render_outcome eager_o then
        QCheck.Test.fail_reportf "transmit: lazy %s, eager %s" (render_outcome lazy_o)
          (render_outcome eager_o);
      if lazy_c <> eager_c then QCheck.Test.fail_report "crash_round differs";
      true)

let test_by_name_validates_rate () =
  let ok name rate =
    match Fault.by_name name ~rate with Ok m -> m.Fault.name = name | Error _ -> false
  in
  let err name rate = Result.is_error (Fault.by_name name ~rate) in
  Alcotest.(check bool) "drop 0.05 resolves" true (ok "drop" 0.05);
  Alcotest.(check bool) "rate 0 and 1 are the closed ends" true (ok "crash" 0. && ok "chaos" 1.);
  Alcotest.(check bool) "rate 2 rejected" true (err "drop" 2.);
  Alcotest.(check bool) "rate 1.5 rejected" true (err "drop" 1.5);
  Alcotest.(check bool) "negative rate rejected" true (err "corrupt" (-0.1));
  Alcotest.(check bool) "nan rejected" true (err "delay" Float.nan);
  Alcotest.(check bool) "infinity rejected" true (err "duplicate" Float.infinity);
  Alcotest.(check bool) "unknown model rejected" true (err "bogus" 0.05)

let () =
  Alcotest.run "net"
    [
      ( "completeness",
        [
          Alcotest.test_case "reliable network, both tiers, both modes" `Quick
            test_reliable_completeness;
          Alcotest.test_case "multiset-eq adapter" `Quick test_mseq_adapter_completeness;
          Alcotest.test_case "rate-0 sweep points" `Quick test_zero_rate_sweep_accepts;
        ] );
      ( "one check",
        [
          QCheck_alcotest.to_alcotest prop_reliable_net_equals_sync;
          QCheck_alcotest.to_alcotest prop_mutated_frame_never_raises;
          Alcotest.test_case "corrupted parent z echo rejects" `Quick test_mseq_z_echo;
        ] );
      ( "faults",
        [
          Alcotest.test_case "total drop: strict starves, degrade survives" `Quick
            test_total_drop;
          Alcotest.test_case "corruption: semantic flips, checksum absorbs" `Quick
            test_total_corruption_semantic_vs_checksum;
          Alcotest.test_case "certain crash" `Quick test_certain_crash;
          Alcotest.test_case "retries recover frames" `Quick test_retries_recover_frames;
          QCheck_alcotest.to_alcotest prop_lazy_streams_match_eager;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "execute is seed-pure" `Quick test_execute_deterministic;
          Alcotest.test_case "sweep report identical for 1/2/4 domains" `Quick
            test_sweep_identical_across_jobs;
        ] );
      ( "limits",
        [
          Alcotest.test_case "retries = 15, latency = 0 rejected" `Quick test_preconditions;
          Alcotest.test_case "by_name rejects rates outside [0, 1]" `Quick
            test_by_name_validates_rate;
        ] );
    ]
