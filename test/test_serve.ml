(* The label cursor's two backends and the batched verification service:
   differential Flat-vs-Checked equality (QCheck programs, envelope
   widths, the pinned transcript corpus re-run on the Checked reference,
   mutated LR-sorting labels replayed under both), response-log
   determinism across DIPP_JOBS and cache settings against the committed
   golden stream, malformed-request rejection, and the prepared-instance
   cache's schedule-independent eviction boundary. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Flat cursor vs checked Writer/Reader ----------------------------- *)

(* a random "program" of int fields; both serializers must agree bit for
   bit, and both decoders must read the same values back *)
let field_program =
  QCheck.(
    list_of_size Gen.(int_range 1 24)
      (pair (int_range 0 62) (map abs int)))

let values_of fields = List.map (fun (w, v) -> (w, if w = 0 then 0 else v land ((1 lsl w) - 1))) fields

let prop_flat_encoder_matches_writer =
  QCheck.Test.make ~name:"serve: flat encoder agrees with Bits.Writer" ~count:200 field_program
    (fun fields ->
      let fields = values_of fields in
      let w = Bits.Writer.create () in
      List.iter (fun (width, v) -> Bits.Writer.int w ~width v) fields;
      let checked = Bits.Writer.contents w in
      let e = Bits_flat.Enc.create Bits_flat.Flat 16 in
      List.iter (fun (width, v) -> Bits_flat.Enc.int e ~width v) fields;
      Bits.equal checked (Bits_flat.Enc.to_bits e))

let prop_flat_decoder_matches_reader =
  QCheck.Test.make ~name:"serve: flat decoder agrees with Bits.Reader" ~count:200 field_program
    (fun fields ->
      let fields = values_of fields in
      let w = Bits.Writer.create () in
      List.iter (fun (width, v) -> Bits.Writer.int w ~width v) fields;
      let b = Bits.Writer.contents w in
      let r = Bits.Reader.of_bits b in
      let d = Bits_flat.Dec.of_bits Bits_flat.Flat b in
      List.for_all
        (fun (width, v) ->
          let rv = Bits.Reader.int r ~width and dv = Bits_flat.Dec.int d ~width in
          rv = v && dv = v)
        fields
      && Bits.Reader.remaining r = 0
      && Bits_flat.Dec.remaining d = 0)

let prop_flat_reset_reuse =
  (* reuse after reset must not leak bits from the previous encoding *)
  QCheck.Test.make ~name:"serve: flat encoder reset reuses the buffer cleanly" ~count:100
    QCheck.(pair field_program field_program)
    (fun (a, b) ->
      let a = values_of a and b = values_of b in
      let encode_fresh fields =
        let e = Bits_flat.Enc.create Bits_flat.Flat 16 in
        List.iter (fun (width, v) -> Bits_flat.Enc.int e ~width v) fields;
        Bits_flat.Enc.to_bits e
      in
      let e = Bits_flat.Enc.create Bits_flat.Flat 16 in
      List.iter (fun (width, v) -> Bits_flat.Enc.int e ~width v) a;
      ignore (Bits_flat.Enc.to_bits e);
      Bits_flat.Enc.reset e;
      List.iter (fun (width, v) -> Bits_flat.Enc.int e ~width v) b;
      Bits.equal (encode_fresh b) (Bits_flat.Enc.to_bits e))

let test_envelope_width_roundtrips () =
  (* the width a label needs to meet each family's registry envelope, at a
     spread of sizes: encode/decode the boundary values at exactly those
     widths through both backends *)
  let bits_for v =
    let rec go w = if v lsr w = 0 then w else go (w + 1) in
    max 1 (go 0)
  in
  List.iter
    (fun row_id ->
      match Bounds.find row_id with
      | None -> Alcotest.fail ("no bounds row " ^ row_id)
      | Some row ->
          List.iter
            (fun n ->
              let env = Bounds.envelope row ~n ~delta:(max 2 (n - 1)) in
              let width = min 62 (bits_for env) in
              let mask = if width = 62 then max_int else (1 lsl width) - 1 in
              List.iter
                (fun v ->
                  let w = Bits.Writer.create () in
                  Bits.Writer.int w ~width v;
                  let checked = Bits.Writer.contents w in
                  let e = Bits_flat.Enc.create Bits_flat.Flat width in
                  Bits_flat.Enc.int e ~width v;
                  Alcotest.(check bool)
                    (Printf.sprintf "%s n=%d width=%d v=%d encodes equal" row_id n width v)
                    true
                    (Bits.equal checked (Bits_flat.Enc.to_bits e));
                  Alcotest.(check int)
                    (Printf.sprintf "%s n=%d width=%d v=%d flat read" row_id n width v)
                    v
                    (Bits_flat.read_int checked ~pos:0 ~width))
                [ 0; 1; env land mask; mask ])
            [ 16; 64; 256; 1024 ])
    [
      "lr_sorting";
      "path_outerplanarity";
      "outerplanarity";
      "planar_embedding";
      "planarity";
      "series_parallel_dip";
      "treewidth2_dip";
    ]

(* ---- the Checked reference vs the pinned transcript corpus ------------ *)

(* test_trace re-records every corpus entry on the default (Flat) backend;
   re-running them here on Checked holds the reference to the same bytes *)

let corpus_seed = 7

let check_frames_equal id (committed : (Dip.phase * Bits.t array) list)
    (rerun : (Dip.phase * Bits.t array) list) =
  Alcotest.(check int) (id ^ " frame count") (List.length committed) (List.length rerun);
  List.iteri
    (fun i ((ph_c, fr_c), (ph_f, fr_f)) ->
      Alcotest.(check bool) (Printf.sprintf "%s frame %d phase" id i) true (ph_c = ph_f);
      Alcotest.(check int) (Printf.sprintf "%s frame %d arity" id i) (Array.length fr_c)
        (Array.length fr_f);
      Array.iteri
        (fun v b ->
          if not (Bits.equal b fr_f.(v)) then
            Alcotest.fail (Printf.sprintf "%s frame %d label %d differs on re-run" id i v))
        fr_c)
    (List.combine committed rerun)

let test_checked_matches_corpus_lr () =
  (* E1 = lr_yes n=128 gseed=42 recorded at seed 7: re-running on the
     Checked backend must reproduce the committed frames byte for byte *)
  let committed = Trace.of_file "golden/trace/E1.trace" in
  let path, arcs = Gen.lr_yes ~n:128 42 in
  let inst = { Lr_sorting.n = 128; path; arcs } in
  let r =
    Lr_sorting.run ~seed:corpus_seed ~retain:true ~codec:Bits_flat.Checked
      ~prover:Lr_sorting.Honest inst
  in
  check_frames_equal "E1" committed.Trace.frames r.Lr_sorting.transcript;
  Alcotest.(check bool) "E1 verdict" true r.Lr_sorting.verdict.Dip.accepted;
  Alcotest.(check bool) "E1 stats equal" true (committed.Trace.stats = r.Lr_sorting.stats)

let test_checked_matches_corpus_po () =
  (* E3 = path_outerplanar n=200 gseed=11 recorded at seed 7 *)
  let committed = Trace.of_file "golden/trace/E3.trace" in
  let g, w = Gen.path_outerplanar ~n:200 11 in
  let r =
    Path_outerplanarity.run ~seed:corpus_seed ~retain:true ~codec:Bits_flat.Checked
      ~prover:Path_outerplanarity.Honest
      { Path_outerplanarity.graph = g; witness = Some w }
  in
  check_frames_equal "E3" committed.Trace.frames r.Path_outerplanarity.transcript;
  Alcotest.(check bool) "E3 verdict" true r.Path_outerplanarity.verdict.Dip.accepted;
  Alcotest.(check bool) "E3 stats equal" true
    (committed.Trace.stats = r.Path_outerplanarity.stats)

(* the five composite families, each as (trace id, runner): the runner
   re-executes the pinned registry instance under the given codec and
   returns (frames, accepted, stats) *)
let composite_runs =
  [
    ( "E4",
      fun ~codec ~seed ->
        let g = Gen.outerplanar ~blocks:4 3 in
        let r =
          Outerplanarity.run ~seed ~retain:true ~codec ~prover:Outerplanarity.Honest
            { Outerplanarity.graph = g }
        in
        (r.Outerplanarity.transcript, r.Outerplanarity.verdict.Dip.accepted, r.Outerplanarity.stats)
    );
    ( "E5",
      fun ~codec ~seed ->
        let g = Gen.planar ~n:64 5 in
        let rot =
          match Gen.embedding g with
          | Some rot -> rot
          | None -> Alcotest.fail "E5 planar instance has no embedding"
        in
        let r =
          Planar_embedding.run ~seed ~retain:true ~codec ~prover:Planar_embedding.Honest
            { Planar_embedding.graph = g; rot }
        in
        ( r.Planar_embedding.transcript,
          r.Planar_embedding.verdict.Dip.accepted,
          r.Planar_embedding.stats ) );
    ( "E6",
      fun ~codec ~seed ->
        let g = Gen.planar ~n:64 5 in
        let r =
          Planarity.run ~seed ~retain:true ~codec ~prover:Planarity.Honest { Planarity.graph = g }
        in
        (r.Planarity.transcript, r.Planarity.verdict.Dip.accepted, r.Planarity.stats) );
    ( "E7",
      fun ~codec ~seed ->
        let tr, g = Gen.series_parallel ~size:64 3 in
        let ears = Series_parallel.ears_of_sp tr in
        let r =
          Series_parallel_dip.run ~seed ~retain:true ~codec ~prover:Series_parallel_dip.Honest
            { Series_parallel_dip.graph = g; ears = Some ears }
        in
        ( r.Series_parallel_dip.transcript,
          r.Series_parallel_dip.verdict.Dip.accepted,
          r.Series_parallel_dip.stats ) );
    ( "E8",
      fun ~codec ~seed ->
        let g = Gen.treewidth2 ~blocks:4 3 in
        let r =
          Treewidth2_dip.run ~seed ~retain:true ~codec ~prover:Treewidth2_dip.Honest
            { Treewidth2_dip.graph = g }
        in
        (r.Treewidth2_dip.transcript, r.Treewidth2_dip.verdict.Dip.accepted, r.Treewidth2_dip.stats)
    );
  ]

let test_checked_matches_corpus_composites () =
  (* E4-E8: the five composite families, re-run on the Checked backend
     against the committed frames (seed read back from the trace) *)
  List.iter
    (fun (id, run) ->
      let committed = Trace.of_file ("golden/trace/" ^ id ^ ".trace") in
      let frames, accepted, stats = run ~codec:Bits_flat.Checked ~seed:committed.Trace.seed in
      check_frames_equal id committed.Trace.frames frames;
      Alcotest.(check bool) (id ^ " verdict") true accepted;
      Alcotest.(check bool) (id ^ " stats equal") true (committed.Trace.stats = stats))
    composite_runs

let test_cross_codec_reexecution_composites () =
  (* the composite protocols replay by deterministic re-execution (registry
     semantics): at a fresh seed, a checked run and a flat run must produce
     the same transcript, verdict, and stats *)
  List.iter
    (fun (id, run) ->
      let fc, ac, sc = run ~codec:Bits_flat.Checked ~seed:13 in
      let ff, af, sf = run ~codec:Bits_flat.Flat ~seed:13 in
      check_frames_equal (id ^ " seed=13") fc ff;
      Alcotest.(check bool) (id ^ " verdicts agree") true (ac = af);
      Alcotest.(check bool) (id ^ " stats agree") true (sc = sf))
    composite_runs

let test_flat_replay_cross_codec () =
  (* a transcript recorded under one codec replays under the other *)
  let path, arcs = Gen.lr_yes ~n:96 5 in
  let inst = { Lr_sorting.n = 96; path; arcs } in
  let recorded =
    Lr_sorting.run ~seed:3 ~retain:true ~codec:Bits_flat.Checked ~prover:Lr_sorting.Honest inst
  in
  (match Lr_sorting.replay ~codec:Bits_flat.Flat inst recorded.Lr_sorting.transcript with
  | Ok v -> Alcotest.(check bool) "flat replay of checked recording" true v.Dip.accepted
  | Error e -> Alcotest.fail ("flat replay diverged: " ^ e));
  let recorded_flat =
    Lr_sorting.run ~seed:3 ~retain:true ~codec:Bits_flat.Flat ~prover:Lr_sorting.Honest inst
  in
  match Lr_sorting.replay ~codec:Bits_flat.Checked inst recorded_flat.Lr_sorting.transcript with
  | Ok v -> Alcotest.(check bool) "checked replay of flat recording" true v.Dip.accepted
  | Error e -> Alcotest.fail ("checked replay diverged: " ^ e)

(* ---- both backends on adversarial labels ----------------------------- *)

(* Honest LR-sorting transcripts at a spread of sizes, recorded once. *)
let lr_recordings =
  lazy
    (Array.of_list
       (List.map
          (fun (n, gseed) ->
            let path, arcs = Gen.lr_yes ~n gseed in
            let inst = { Lr_sorting.n; path; arcs } in
            let r = Lr_sorting.run ~seed:gseed ~retain:true ~prover:Lr_sorting.Honest inst in
            (inst, r.Lr_sorting.transcript))
          [ (20, 1); (33, 2); (47, 3); (64, 4); (81, 5); (100, 6); (117, 7); (139, 8) ]))

type mutation = Flip of int | Truncate of int | Extend of bool

(* Flip one bit, cut the label to a shorter length, or append one bit. *)
let mutate b = function
  | Flip k when Bits.length b > 0 ->
      let k = k mod Bits.length b in
      Bits.of_string
        (String.mapi (fun i c -> if i <> k then c else if c = '0' then '1' else '0') (Bits.to_string b))
  | Truncate k when Bits.length b > 0 -> Bits.sub b ~pos:0 ~len:(k mod Bits.length b)
  | Flip _ | Truncate _ -> Bits.of_bool true
  | Extend bit -> Bits.append b (Bits.of_bool bit)

type replayed = Verdict of Dip.verdict | Malformed of string | Escaped of string

let replay_outcome codec inst frames =
  match Lr_sorting.replay ~codec inst frames with
  | Ok v -> Verdict v
  | Error e -> Malformed e
  | exception e -> Escaped (Printexc.to_string e)

let prop_backends_agree_on_mutated_labels =
  QCheck.Test.make ~name:"codec: mutated lr labels replay alike under both backends" ~count:1000
    QCheck.(
      quad (int_bound 7) (int_bound 4) (int_bound 10_000)
        (pair (int_bound 2) (int_bound 10_000)))
    (fun (which, frame, label, (kind, k)) ->
      let inst, frames = (Lazy.force lr_recordings).(which) in
      let mutation = match kind with 0 -> Flip k | 1 -> Truncate k | _ -> Extend (k land 1 = 1) in
      let frames =
        List.mapi
          (fun i (phase, arr) ->
            if i <> frame then (phase, arr)
            else begin
              let arr = Array.copy arr in
              let j = label mod Array.length arr in
              arr.(j) <- mutate arr.(j) mutation;
              (phase, arr)
            end)
          frames
      in
      let checked = replay_outcome Bits_flat.Checked inst frames in
      let flat = replay_outcome Bits_flat.Flat inst frames in
      (match (checked, flat) with
      | Escaped e, _ | _, Escaped e -> QCheck.Test.fail_reportf "an exception escaped replay: %s" e
      | _ -> ());
      checked = flat)

(* ---- the serve stream ------------------------------------------------- *)

let golden_stream () =
  let ic = open_in "golden/serve_requests.txt" in
  let s = In_channel.input_all ic in
  close_in ic;
  match Serve.parse_requests s with
  | Ok reqs -> reqs
  | Error e -> Alcotest.fail ("golden stream does not parse: " ^ e)

let golden_responses () =
  let ic = open_in "golden/serve_responses.txt" in
  let s = In_channel.input_all ic in
  close_in ic;
  let lines = String.split_on_char '\n' (String.trim s) in
  let log, digest =
    List.partition (fun l -> not (String.length l > 8 && String.sub l 0 8 = "digest: ")) lines
  in
  match digest with
  | [ d ] -> (Array.of_list log, String.sub d 8 (String.length d - 8))
  | _ -> Alcotest.fail "golden responses must end with one digest line"

let run_stream ?jobs reqs =
  Label_cache.reset ();
  Serve.Prepared_cache.reset ();
  let out = Serve.execute ?jobs reqs in
  (Serve.response_log out, out)

let test_serve_matches_golden () =
  let reqs = golden_stream () in
  let expected_log, expected_digest = golden_responses () in
  let log, _ = run_stream ~jobs:1 reqs in
  Alcotest.(check (array string)) "response log matches committed golden" expected_log log;
  Alcotest.(check string) "digest matches committed golden" expected_digest
    (Serve.log_digest log)

let test_serve_deterministic_across_jobs_and_cache () =
  let reqs = golden_stream () in
  let log1, _ = run_stream ~jobs:1 reqs in
  let digest = Serve.log_digest log1 in
  List.iter
    (fun jobs ->
      let log, _ = run_stream ~jobs reqs in
      Alcotest.(check string)
        (Printf.sprintf "digest at jobs=%d" jobs)
        digest (Serve.log_digest log))
    [ 2; 4 ];
  Unix.putenv "DIPP_LABEL_CACHE" "0";
  let log_nc, _ = run_stream ~jobs:2 reqs in
  Unix.putenv "DIPP_LABEL_CACHE" "1";
  Alcotest.(check string) "digest with the label cache disabled" digest
    (Serve.log_digest log_nc)

let test_serve_cache_counters_deterministic () =
  let reqs = golden_stream () in
  let stats_at jobs =
    ignore (run_stream ~jobs reqs);
    Serve.Prepared_cache.stats ()
  in
  let s1 = stats_at 1 in
  Alcotest.(check bool) "prepared-cache stats identical at jobs=2" true (s1 = stats_at 2);
  Alcotest.(check bool) "prepared-cache stats identical at jobs=4" true (s1 = stats_at 4);
  let lookups, distinct, resident, _ = s1 in
  Alcotest.(check int) "one lookup per request" (Array.length reqs) lookups;
  Alcotest.(check bool) "repeat topologies deduplicated" true (distinct < Array.length reqs);
  Alcotest.(check int) "all distinct topologies resident under default capacity" distinct resident

(* ---- stream codec roundtrips ------------------------------------------ *)

let test_stream_roundtrips () =
  let reqs = golden_stream () in
  (match Serve.parse_requests (Serve.requests_to_text reqs) with
  | Ok r -> Alcotest.(check bool) "text roundtrip" true (r = reqs)
  | Error e -> Alcotest.fail ("text roundtrip: " ^ e));
  let bin = Serve.requests_to_binary reqs in
  Alcotest.(check string) "binary magic" Serve.magic (String.sub bin 0 (String.length Serve.magic));
  match Serve.parse_requests bin with
  | Ok r -> Alcotest.(check bool) "binary roundtrip" true (r = reqs)
  | Error e -> Alcotest.fail ("binary roundtrip: " ^ e)

(* ---- malformed requests ------------------------------------------------ *)

let mk family n gseed seed budget = { Serve.family; n; gseed; seed; budget }

let expect_bad name reqs =
  match Serve.execute ~jobs:2 reqs with
  | exception Serve.Bad_request _ -> ()
  | _ -> Alcotest.fail ("expected Bad_request: " ^ name)

let test_bad_requests_rejected () =
  expect_bad "unknown family" [| mk "nope" 16 1 0 100 |];
  expect_bad "n below the family floor" [| mk "lr" 2 1 0 100 |];
  expect_bad "n above the service ceiling" [| mk "lr" (Serve.max_request_n + 1) 1 0 100 |];
  expect_bad "negative generator seed" [| mk "lr" 16 (-1) 0 100 |];
  expect_bad "negative run seed" [| mk "lr" 16 1 (-1) 100 |];
  expect_bad "non-positive budget" [| mk "lr" 16 1 0 0 |];
  expect_bad "budget over the registry envelope" [| mk "lr" 64 1 0 1_000_000 |];
  (* a bad request anywhere in the batch is rejected before any work *)
  expect_bad "bad request mid-batch" [| mk "lr" 32 1 1 150; mk "nope" 16 1 0 100 |];
  Label_cache.reset ();
  Serve.Prepared_cache.reset ();
  let lookups, _, _, _ = Serve.Prepared_cache.stats () in
  Alcotest.(check int) "no pooled work ran for rejected batches" 0 lookups

let test_malformed_streams_rejected () =
  let reqs = golden_stream () in
  let bin = Serve.requests_to_binary reqs in
  let expect_err name s =
    match Serve.parse_requests s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected parse error: " ^ name)
  in
  expect_err "truncated binary frame" (String.sub bin 0 (String.length bin - 3));
  expect_err "unknown binary family id" (Serve.magic ^ String.make 17 '\xff');
  expect_err "text: missing fields" "lr 16 1\n";
  expect_err "text: malformed integer" "lr 16 x 0 200\n";
  (* an unknown family name in a text stream parses (the format is just
     five fields) and is rejected by validation before any pooled work,
     mirroring the unknown-binary-id parse error *)
  match Serve.parse_requests "warp 16 1 0 200\n" with
  | Error e -> Alcotest.fail ("text with unknown family should parse: " ^ e)
  | Ok reqs -> expect_bad "text: unknown family" reqs

let test_crlf_text_streams () =
  (* positive: a CRLF-terminated stream parses to the same requests as its
     LF twin, comments and blank lines included *)
  let lf = "# comment\nlr 32 1 1 180\n\nlr 32 2 1 180\n" in
  let crlf = "# comment\r\nlr 32 1 1 180\r\n\r\nlr 32 2 1 180\r\n" in
  (match (Serve.parse_requests lf, Serve.parse_requests crlf) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "CRLF stream parses like the LF stream" true (a = b);
      Alcotest.(check int) "both carry two requests" 2 (Array.length a)
  | Error e, _ | _, Error e -> Alcotest.fail ("CRLF/LF stream should parse: " ^ e));
  (* negative: stripping the '\r' must not mask real malformations, and the
     reported line number still counts CRLF lines correctly *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match Serve.parse_requests "lr 32 1 1 180\r\nlr 32 1 1\r\n" with
  | Ok _ -> Alcotest.fail "malformed CRLF line should be rejected"
  | Error e -> Alcotest.(check bool) "error names line 2" true (contains e "line 2")

(* ---- latency accounting ------------------------------------------------ *)

let test_latency_clamp () =
  (* wall-clock can step backwards between the two reads; the latency is
     clamped at zero rather than reported negative *)
  Alcotest.(check (float 0.)) "backwards clock clamps to 0" 0.
    (Serve.monotonic_latency ~t0:10.5 ~t1:10.25);
  Alcotest.(check (float 0.)) "equal reads give 0" 0. (Serve.monotonic_latency ~t0:3. ~t1:3.);
  Alcotest.(check (float 1e-9)) "forward reads subtract" 0.25
    (Serve.monotonic_latency ~t0:10.25 ~t1:10.5)

let test_percentile_edges () =
  let check_p name expected got =
    match got with
    | Some v -> Alcotest.(check (float 0.)) name expected v
    | None -> Alcotest.fail (name ^ ": unexpected None")
  in
  (* empty input is explicit, not a silent 0 *)
  Alcotest.(check bool) "empty array has no percentile" true (Serve.percentile [||] ~pct:50 = None);
  Alcotest.(check bool) "empty outcomes have no latency summary" true
    (Serve.latency_percentiles [||] = None);
  (* out-of-range pct is refused *)
  Alcotest.(check bool) "pct=0 refused" true (Serve.percentile [| 1. |] ~pct:0 = None);
  Alcotest.(check bool) "pct=101 refused" true (Serve.percentile [| 1. |] ~pct:101 = None);
  (* singleton: every percentile is the one sample *)
  check_p "singleton p50" 7. (Serve.percentile [| 7. |] ~pct:50);
  check_p "singleton p99" 7. (Serve.percentile [| 7. |] ~pct:99);
  (* nearest rank in exact integer arithmetic: for n=100, p99 is the 99th
     sample (index 98) — the float formulation rounded up to index 99 *)
  let hundred = Array.init 100 float_of_int in
  check_p "n=100 p99 is index 98" 98. (Serve.percentile hundred ~pct:99);
  check_p "n=100 p50 is index 49" 49. (Serve.percentile hundred ~pct:50);
  check_p "n=100 p100 is the max" 99. (Serve.percentile hundred ~pct:100);
  check_p "n=100 p1 is the min" 0. (Serve.percentile hundred ~pct:1);
  (* n=4: ceil(.5*4)=2nd sample, ceil(.99*4)=4th sample *)
  let four = [| 1.; 2.; 3.; 4. |] in
  check_p "n=4 p50" 2. (Serve.percentile four ~pct:50);
  check_p "n=4 p99" 4. (Serve.percentile four ~pct:99)

(* ---- prepared-instance cache eviction ---------------------------------- *)

let test_eviction_boundary () =
  Label_cache.reset ();
  Serve.Prepared_cache.reset ();
  Serve.Prepared_cache.set_capacity 2;
  (* three distinct topologies through a capacity-2 cache, at several jobs
     counts: the resident set (the two smallest keys) must not depend on
     the schedule, and answers must stay correct throughout *)
  let reqs =
    [| mk "lr" 32 1 1 180; mk "lr" 32 2 1 180; mk "lr" 32 3 1 180; mk "lr" 32 1 2 180 |]
  in
  let digest jobs =
    let out = Serve.execute ~jobs reqs in
    Serve.log_digest (Serve.response_log out)
  in
  let d1 = digest 1 in
  let stats1 = Serve.Prepared_cache.stats () in
  let _, distinct, resident, capacity = stats1 in
  Alcotest.(check int) "three distinct topologies seen" 3 distinct;
  Alcotest.(check int) "resident clamped to capacity" 2 resident;
  Alcotest.(check int) "capacity as set" 2 capacity;
  Serve.Prepared_cache.reset ();
  Serve.Prepared_cache.set_capacity 2;
  Alcotest.(check string) "evicting cache keeps answers deterministic" d1 (digest 4);
  let stats4 = Serve.Prepared_cache.stats () in
  Serve.Prepared_cache.reset ();
  (* lookups can race past a miss, but the derived set counters cannot *)
  let drop_lookups (_, a, b, c) = (a, b, c) in
  Alcotest.(check bool) "eviction state schedule-independent" true
    (drop_lookups stats1 = drop_lookups stats4)

let () =
  Alcotest.run "serve"
    [
      ( "flat-codec",
        [
          qtest prop_flat_encoder_matches_writer;
          qtest prop_flat_decoder_matches_reader;
          qtest prop_flat_reset_reuse;
          Alcotest.test_case "envelope-width roundtrips" `Quick test_envelope_width_roundtrips;
          qtest prop_backends_agree_on_mutated_labels;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "E1 frames byte-identical on checked" `Quick
            test_checked_matches_corpus_lr;
          Alcotest.test_case "E3 frames byte-identical on checked" `Quick
            test_checked_matches_corpus_po;
          Alcotest.test_case "E4-E8 frames byte-identical on checked" `Quick
            test_checked_matches_corpus_composites;
          Alcotest.test_case "cross-codec replay" `Quick test_flat_replay_cross_codec;
          Alcotest.test_case "cross-codec re-execution (composites)" `Quick
            test_cross_codec_reexecution_composites;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "matches committed golden responses" `Quick test_serve_matches_golden;
          Alcotest.test_case "digest stable across jobs and caches" `Quick
            test_serve_deterministic_across_jobs_and_cache;
          Alcotest.test_case "cache counters schedule-independent" `Quick
            test_serve_cache_counters_deterministic;
        ] );
      ( "requests",
        [
          Alcotest.test_case "stream text/binary roundtrips" `Quick test_stream_roundtrips;
          Alcotest.test_case "CRLF text streams" `Quick test_crlf_text_streams;
          Alcotest.test_case "malformed requests rejected" `Quick test_bad_requests_rejected;
          Alcotest.test_case "malformed streams rejected" `Quick test_malformed_streams_rejected;
        ] );
      ( "latency",
        [
          Alcotest.test_case "backwards-clock clamp" `Quick test_latency_clamp;
          Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
        ] );
      ("eviction", [ Alcotest.test_case "capacity boundary" `Quick test_eviction_boundary ]);
    ]
