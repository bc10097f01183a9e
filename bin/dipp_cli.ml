(* The `dipp` command-line tool: generate instances, run recognitions, and
   execute the interactive proofs on graphs from files or generators.

     dipp gen --family outerplanar --size 5 --seed 3 -o net.txt
     dipp check net.txt --property outerplanar
     dipp prove net.txt --property planarity
     dipp certify --family planar --size 100 --cheat
     dipp dot net.txt
     dipp lower-bound -n 1024
     dipp record -e E3 -s 7 -o E3.trace
     dipp replay E3.trace
     dipp audit E3.trace other.trace
     dipp serve requests.txt --jobs 4
     dipp net net.txt --shards 4 --model drop --rate 0.05 *)

open Dipp
open Cmdliner

(* ---- shared args ------------------------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Generator / protocol seed.")

let size_arg =
  Arg.(value & opt int 64 & info [ "n"; "size" ] ~docv:"N" ~doc:"Instance size parameter.")

let family_arg =
  let families =
    [
      ("path-outerplanar", `Path_outerplanar);
      ("outerplanar", `Outerplanar);
      ("planar", `Planar);
      ("series-parallel", `Sp);
      ("treewidth2", `Tw2);
      ("nonplanar", `Nonplanar);
      ("crossing", `Crossing);
    ]
  in
  Arg.(
    value
    & opt (enum families) `Outerplanar
    & info [ "f"; "family" ] ~docv:"FAMILY"
        ~doc:"Instance family: path-outerplanar, outerplanar, planar, series-parallel, treewidth2, nonplanar, crossing.")

let property_arg =
  let props =
    [
      ("path-outerplanar", `Path_outerplanar);
      ("outerplanar", `Outerplanar);
      ("planar", `Planar);
      ("series-parallel", `Sp);
      ("treewidth2", `Tw2);
    ]
  in
  Arg.(
    value
    & opt (enum props) `Planar
    & info [ "p"; "property" ] ~docv:"PROP"
        ~doc:"Graph property: path-outerplanar, outerplanar, planar, series-parallel, treewidth2.")

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Edge-list file.")

(* A malformed or unreadable edge-list file is a usage error: print the
   path and line message and exit 2. *)
let read_graph file =
  match Graph_io.read_file file with
  | g -> g
  | exception Invalid_argument msg ->
      Printf.eprintf "dipp: %s\n" msg;
      exit 2
  | exception Sys_error msg ->
      let msg = if String.starts_with ~prefix:file msg then msg else file ^ ": " ^ msg in
      Printf.eprintf "dipp: %s\n" msg;
      exit 2

(* A graph outside a protocol's precondition is a usage error too: it
   needs at least [min_n] nodes, and a connected graph when [connected]. *)
let require_graph file ~min_n ~connected g =
  let fail msg =
    Printf.eprintf "dipp: %s: %s\n" file msg;
    exit 2
  in
  if Graph.n g < min_n then
    fail (Printf.sprintf "need a graph with at least %d node(s), got %d" min_n (Graph.n g))
  else if connected && not (Traversal.is_connected g) then fail "need a connected graph"

let gen_graph family ~n ~seed =
  match family with
  | `Path_outerplanar -> fst (Gen.path_outerplanar ~n:(max 4 n) seed)
  | `Outerplanar -> Gen.outerplanar ~blocks:(max 1 (n / 8)) seed
  | `Planar -> Gen.planar ~n:(max 4 n) seed
  | `Sp -> snd (Gen.series_parallel ~size:(max 4 n) seed)
  | `Tw2 -> Gen.treewidth2 ~blocks:(max 1 (n / 8)) seed
  | `Nonplanar -> Gen.nonplanar ~n:(max 25 n) seed
  | `Crossing -> fst (Gen.path_crossing ~n:(max 10 n) seed)

(* ---- gen ---------------------------------------------------------------- *)

let gen_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE (stdout otherwise).")
  in
  let run family n seed out =
    let g = gen_graph family ~n ~seed in
    let text = Graph_io.to_edge_list g in
    (match out with Some path -> Graph_io.write_file path g | None -> print_string text);
    Printf.eprintf "generated: n=%d m=%d\n" (Graph.n g) (Graph.m g)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a yes/no instance and print its edge list.")
    Term.(const run $ family_arg $ size_arg $ seed_arg $ out_arg)

(* ---- check (centralized recognition) ------------------------------------- *)

let check_cmd =
  let run file prop =
    let g = read_graph file in
    let answer, witness_note =
      match prop with
      | `Path_outerplanar -> (
          match Outerplanar.path_witness g with
          | Some w when Outerplanar.check_path_witness g w ->
              (true, Printf.sprintf "witness path: %s" (String.concat " " (List.map string_of_int w)))
          | _ -> (false, "no nesting Hamiltonian path found"))
      | `Outerplanar -> (Outerplanar.is_outerplanar g, "")
      | `Planar -> (
          match Planar_test.embed g with
          | Some rot -> (true, Printf.sprintf "embedding with %d faces" (Rotation.face_count rot))
          | None -> (false, "no planar embedding exists"))
      | `Sp -> (
          match Series_parallel.decompose g with
          | Some t ->
              let s, e = Series_parallel.terminals t in
              (true, Printf.sprintf "series-parallel with terminals (%d, %d)" s e)
          | None -> (false, ""))
      | `Tw2 -> (Series_parallel.is_treewidth_le_2 g, "")
    in
    Printf.printf "n=%d m=%d: %s%s\n" (Graph.n g) (Graph.m g)
      (if answer then "YES" else "NO")
      (if witness_note = "" then "" else "  (" ^ witness_note ^ ")");
    if not answer then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Centralized recognition of a graph property (ground truth).")
    Term.(const run $ file_arg $ property_arg)

(* ---- prove (run the DIP) --------------------------------------------------- *)

let report name (verdict : Dip.verdict) (stats : Dip.stats) =
  Printf.printf "%s: %s\n" name (if verdict.Dip.accepted then "ACCEPT" else "REJECT");
  Format.printf "  %a@." Dip.pp_stats stats;
  if not verdict.Dip.accepted then begin
    Printf.printf "  rejecting nodes: %s\n"
      (String.concat ", " (List.map string_of_int (List.filteri (fun i _ -> i < 16) verdict.Dip.rejecting)));
    exit 1
  end

let prove_graph prop g ~seed =
  match prop with
  | `Path_outerplanar ->
      let r =
        Path_outerplanarity.run ~seed ~prover:Path_outerplanarity.Honest
          { Path_outerplanarity.graph = g; witness = None }
      in
      report "path-outerplanarity DIP (Thm 1.2)" r.Path_outerplanarity.verdict r.Path_outerplanarity.stats
  | `Outerplanar ->
      let r = Outerplanarity.run ~seed ~prover:Outerplanarity.Honest { Outerplanarity.graph = g } in
      report "outerplanarity DIP (Thm 1.3)" r.Outerplanarity.verdict r.Outerplanarity.stats
  | `Planar ->
      let r = Planarity.run ~seed ~prover:Planarity.Honest { Planarity.graph = g } in
      report "planarity DIP (Thm 1.5)" r.Planarity.verdict r.Planarity.stats
  | `Sp ->
      let r =
        Series_parallel_dip.run ~seed ~prover:Series_parallel_dip.Honest
          { Series_parallel_dip.graph = g; ears = None }
      in
      report "series-parallel DIP (Thm 1.6)" r.Series_parallel_dip.verdict r.Series_parallel_dip.stats
  | `Tw2 ->
      let r = Treewidth2_dip.run ~seed ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = g } in
      report "treewidth<=2 DIP (Thm 1.7)" r.Treewidth2_dip.verdict r.Treewidth2_dip.stats

let prove_cmd =
  let run file prop seed =
    let g = read_graph file in
    (* the [run] preconditions of the five DIPs *)
    (match prop with
    | `Path_outerplanar -> require_graph file ~min_n:1 ~connected:false g
    | `Sp -> require_graph file ~min_n:2 ~connected:true g
    | `Outerplanar | `Planar | `Tw2 -> require_graph file ~min_n:1 ~connected:true g);
    prove_graph prop g ~seed
  in
  Cmd.v
    (Cmd.info "prove" ~doc:"Run the 5-round interactive proof on a graph from a file.")
    Term.(const run $ file_arg $ property_arg $ seed_arg)

(* ---- certify (generate + prove, optional cheat) ----------------------------- *)

let certify_cmd =
  let cheat_arg = Arg.(value & flag & info [ "cheat" ] ~doc:"Use a no-instance with a cheating prover.") in
  let run family n seed cheat =
    if not cheat then
      (* honest: the property each generator family is named for; the
         no-instance families run the honest DIP they fail *)
      let prop =
        match family with
        | `Nonplanar -> `Planar
        | `Crossing -> `Path_outerplanar
        | (`Path_outerplanar | `Outerplanar | `Planar | `Sp | `Tw2) as p -> p
      in
      prove_graph prop (gen_graph family ~n ~seed) ~seed
    else begin
      (* no-instance + the matching adversary; a REJECT is the expected
         (successful) outcome, so exit 0 on rejection *)
      match family with
      | `Planar | `Nonplanar ->
          let g = Gen.nonplanar ~n:(max 25 n) seed in
          let r = Planarity.run ~seed ~prover:Planarity.Best_rotation { Planarity.graph = g } in
          Printf.printf "cheating prover on non-planar graph: %s\n"
            (if r.Planarity.verdict.Dip.accepted then "ACCEPTED (soundness error!)" else "rejected")
      | `Path_outerplanar | `Crossing ->
          let g, w = Gen.path_crossing ~n:(max 10 n) seed in
          let r =
            Path_outerplanarity.run ~seed ~prover:Path_outerplanarity.Crossing_sweep
              { Path_outerplanarity.graph = g; witness = Some w }
          in
          Printf.printf "cheating prover on crossing instance: %s\n"
            (if r.Path_outerplanarity.verdict.Dip.accepted then "ACCEPTED (soundness error!)" else "rejected")
      | `Outerplanar ->
          let g = Gen.outerplanar_no ~blocks:(max 1 (n / 8)) seed in
          let r = Outerplanarity.run ~seed ~prover:Outerplanarity.Component_cheat { Outerplanarity.graph = g } in
          Printf.printf "cheating prover on non-outerplanar graph: %s\n"
            (if r.Outerplanarity.verdict.Dip.accepted then "ACCEPTED (soundness error!)" else "rejected")
      | `Sp -> (
          match Gen.series_parallel_no ~size:(max 10 n) seed with
          | Some (g, ears) ->
              let r =
                Series_parallel_dip.run ~seed ~prover:Series_parallel_dip.Ear_cheat
                  { Series_parallel_dip.graph = g; ears = Some ears }
              in
              Printf.printf "cheating prover on non-SP graph: %s\n"
                (if r.Series_parallel_dip.verdict.Dip.accepted then "ACCEPTED (soundness error!)" else "rejected")
          | None -> print_endline "could not build a no-instance at this size")
      | `Tw2 -> (
          match Gen.treewidth2_no ~blocks:(max 1 (n / 8)) seed with
          | Some g ->
              let r =
                Treewidth2_dip.run ~seed ~prover:Treewidth2_dip.Component_cheat { Treewidth2_dip.graph = g }
              in
              Printf.printf "cheating prover on treewidth-3 graph: %s\n"
                (if r.Treewidth2_dip.verdict.Dip.accepted then "ACCEPTED (soundness error!)" else "rejected")
          | None -> print_endline "could not build a no-instance at this size")
    end
  in
  Cmd.v
    (Cmd.info "certify" ~doc:"Generate an instance and run the interactive proof on it.")
    Term.(const run $ family_arg $ size_arg $ seed_arg $ cheat_arg)

(* ---- dot --------------------------------------------------------------------- *)

let dot_cmd =
  let run file =
    let g = read_graph file in
    print_string (Graph_io.to_dot g)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Print a DOT rendering of an edge-list file.") Term.(const run $ file_arg)

(* ---- record / replay / audit (transcripts) -------------------------------------- *)

let experiment_arg =
  Arg.(
    required
    & opt (some (enum (List.map (fun id -> (id, id)) Trace_registry.ids))) None
    & info [ "e"; "experiment" ] ~docv:"EXP"
        ~doc:"Corpus experiment id: one of E1..E8 (see `dipp record --help').")

let net_arg =
  Arg.(value & flag & info [ "net" ] ~doc:"Record on the network runtime instead of the synchronous one.")

let record_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace to FILE (default EXP.trace / EXP.net.trace).")
  in
  let run exp net seed out =
    match Trace_registry.find exp with
    | None ->
        Printf.eprintf "unknown experiment %s (known: %s)\n" exp (String.concat " " Trace_registry.ids);
        exit 2
    | Some entry ->
        let runtime = if net then Trace.Net_runtime else Trace.Dip_runtime in
        let t = Trace_registry.record ~runtime entry ~seed in
        let path =
          match out with
          | Some p -> p
          | None -> exp ^ (if net then ".net.trace" else ".trace")
        in
        Trace.to_file path t;
        Printf.printf "%s\n" (Trace.summary t);
        Printf.printf "wrote %s (digest %s)\n" path (Trace.digest t)
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a canonical proof transcript for a corpus experiment.")
    Term.(const run $ experiment_arg $ net_arg $ seed_arg $ out_arg)

let trace_file_arg pos_idx docv =
  Arg.(required & pos pos_idx (some file) None & info [] ~docv ~doc:"Transcript file.")

let replay_cmd =
  let run file =
    let t = Trace.of_file file in
    Printf.printf "%s\n" (Trace.summary t);
    match Trace_registry.replay t with
    | Ok r ->
        Printf.printf "replay OK (%s): verdict %s matches, frames and per-phase bit counts match\n"
          r.Trace_registry.mode
          (if r.Trace_registry.verdict.Dip.accepted then "ACCEPT" else "REJECT")
    | Error msg ->
        Printf.printf "replay DIVERGED: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a transcript against the registry; exit 1 on any divergence.")
    Term.(const run $ trace_file_arg 0 "FILE")

let audit_cmd =
  let run file_a file_b =
    let a = Trace.of_file file_a in
    let b = Trace.of_file file_b in
    Printf.printf "a: %s\n" (Trace.summary a);
    Printf.printf "b: %s\n" (Trace.summary b);
    match Trace.diff a b with
    | None -> Printf.printf "identical: digest %s\n" (Trace.digest a)
    | Some d ->
        Printf.printf "divergence: %s\n" d;
        exit 1
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Byte-compare two transcripts and report the first divergence.")
    Term.(const run $ trace_file_arg 0 "FILE_A" $ trace_file_arg 1 "FILE_B")

(* ---- serve (batched verification service) ---------------------------------------- *)

let serve_cmd =
  let stream_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"STREAM"
          ~doc:"Request stream (text or binary, auto-detected); `-' or omitted reads stdin.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker-domain count (default: \\$(b,DIPP_JOBS) or the machine's core count).")
  in
  let run stream jobs =
    let input =
      match stream with
      | None | Some "-" -> In_channel.input_all stdin
      | Some path -> In_channel.with_open_bin path In_channel.input_all
    in
    match Serve.parse_requests input with
    | Error msg ->
        Printf.eprintf "serve: %s\n" msg;
        exit 2
    | Ok reqs -> (
        let t0 = Unix.gettimeofday () in
        match Serve.execute ?jobs reqs with
        | exception Serve.Bad_request msg ->
            Printf.eprintf "serve: %s\n" msg;
            exit 2
        | out ->
            let wall = Unix.gettimeofday () -. t0 in
            (* stdout carries only the deterministic response log + digest:
               byte-identical for every --jobs/cache setting.
               Timing and cache statistics go to stderr. *)
            let log = Serve.response_log out in
            Array.iter print_endline log;
            Printf.printf "digest: %s\n" (Serve.log_digest log);
            (match Serve.latency_percentiles out with
            | Some (p50, p99) ->
                Printf.eprintf
                  "served %d request(s) in %.3fs (%.1f req/s), p50=%.3fms p99=%.3fms\n"
                  (Array.length out) wall
                  (float_of_int (Array.length out) /. wall)
                  (p50 *. 1e3) (p99 *. 1e3)
            | None -> Printf.eprintf "served 0 request(s) in %.3fs\n" wall);
            Printf.eprintf "%s\n%s\n" (Serve.Prepared_cache.report ()) (Label_cache.report ());
            if Array.exists (fun o -> not o.Serve.response.Serve.accepted) out then exit 1)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Answer a stream of verification requests at maximum throughput (instances and honest \
          runs cached, batches fanned over the domain pool).")
    Term.(const run $ stream_arg $ jobs_arg)

(* ---- net (execute on the fault-injecting network runtime) ------------------------ *)

let net_run_cmd =
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Shard count: blocks of the graph stepped in parallel (default: \\$(b,DIPP_SHARDS) \
             or 4).  The verdict is identical for every K.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker-domain count for the shards.")
  in
  let pseed_arg =
    Arg.(
      value
      & opt int 0
      & info [ "partition-seed" ] ~docv:"S"
          ~doc:"Partition seed (never changes the verdict, only the block layout).")
  in
  let model_arg =
    Arg.(
      value
      & opt string "reliable"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:"Fault model: reliable, drop, corrupt, duplicate, delay, crash, chaos.")
  in
  let rate_arg = Arg.(value & opt float 0.05 & info [ "rate" ] ~docv:"R" ~doc:"Fault rate.") in
  let proto_arg =
    Arg.(
      value
      & opt (enum [ ("pls", `Pls); ("st", `St) ]) `Pls
      & info [ "protocol" ] ~docv:"P"
          ~doc:
            "Protocol to execute: pls (distance-labeling PLS) or st (Lemma 2.5 spanning-tree \
             verification).")
  in
  let run file proto_kind shards jobs partition_seed model_name rate seed =
    let model =
      match Fault.by_name model_name ~rate with
      | Ok m -> m
      | Error msg ->
          Printf.eprintf "net: %s\n" msg;
          exit 2
    in
    let g = read_graph file in
    (* the spanning tree is rooted at node 0 and must reach every node *)
    require_graph file ~min_n:1 ~connected:true g;
    let parent = Traversal.tree_parent g 0 in
    let proto =
      match proto_kind with
      | `Pls -> Net_protocols.pls_spanning_tree ~graph:g ~parent
      | `St -> Net_protocols.st_verify ~seed g ~parent
    in
    let rng = Rng.create seed in
    let r, st = Shard.execute_ex ?shards ?jobs ~partition_seed ~rng ~model proto in
    Printf.printf "shards=%d windows=%d events=%d cross=%d\n" st.Shard.shards st.Shard.windows
      st.Shard.events st.Shard.cross_messages;
    Printf.printf "%s on %s (n=%d m=%d): %s\n"
      (match proto_kind with `Pls -> "pls-spanning-tree" | `St -> "st-verify")
      model_name (Graph.n g) (Graph.m g)
      (if r.Net.accepted then "ACCEPT" else "REJECT");
    Printf.printf "heard=%.4f crashed=%d rejecting=%d\n" r.Net.heard
      (List.length r.Net.crashed_nodes) (List.length r.Net.rejecting);
    Format.printf "%a@." Net.pp_stats r.Net.stats;
    if not r.Net.accepted then exit 1
  in
  Cmd.v
    (Cmd.info "net"
       ~doc:
         "Execute a protocol on the discrete-event network runtime (sharded across Domains with \
          --shards; the result is shard-count-invariant).")
    Term.(
      const run $ file_arg $ proto_arg $ shards_arg $ jobs_arg $ pseed_arg $ model_arg $ rate_arg
      $ seed_arg)

(* ---- lower-bound --------------------------------------------------------------- *)

let lb_cmd =
  let run n =
    Printf.printf "n = %d (log2 = %d)\n" n (Bounds.ceil_log2 n);
    Printf.printf "1-round soundness threshold:    %d bits\n" (Lower_bound.soundness_threshold ~n);
    Printf.printf "1-round completeness threshold: %d bits\n" (Lower_bound.completeness_threshold ~n);
    let path, arcs = Gen.lr_yes ~n 1 in
    let r = Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest { Lr_sorting.n; path; arcs } in
    Printf.printf "5-round DIP proof size:         %d bits (O(log log n))\n"
      r.Lr_sorting.stats.Dip.proof_size_bits
  in
  Cmd.v
    (Cmd.info "lower-bound" ~doc:"Measure the Theorem 1.8 one-round thresholds at a given size.")
    Term.(const run $ size_arg)

(* cmdliner reads a token that starts with '-' as the next option, so
   `--rate -0.1` would fail as a generic usage error before the option's
   own range check runs; glue a negative number onto the long option
   before it, as if it had been written `--rate=-0.1`. *)
let argv =
  let negative v = String.length v > 1 && v.[0] = '-' && Option.is_some (float_of_string_opt v) in
  let rec glue = function
    | opt :: v :: rest
      when String.length opt > 2 && String.starts_with ~prefix:"--" opt
           && (not (String.contains opt '=')) && negative v ->
        (opt ^ "=" ^ v) :: glue rest
    | a :: rest -> a :: glue rest
    | [] -> []
  in
  Array.of_list (glue (Array.to_list Sys.argv))

let () =
  let info = Cmd.info "dipp" ~version:"1.0.0" ~doc:"Distributed interactive proofs for planarity (Gil-Parter, PODC 2025)." in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [ gen_cmd; check_cmd; prove_cmd; certify_cmd; dot_cmd; lb_cmd; record_cmd; replay_cmd; audit_cmd; serve_cmd; net_run_cmd ]))
