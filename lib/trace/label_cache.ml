(* Content-addressed memo table for honest-prover executions.

   A protocol run is a pure function of (protocol id, instance content,
   seed), so its (verdict, stats) pair can be cached under the SHA-256 of
   exactly those inputs.  The cache only ever returns what the closure
   would have computed — consumers stay byte-identical with the cache on
   or off; only the hit/miss counters (reported to stdout, never to the
   JSON records) reveal it was there.  The table is process-wide and
   mutex-guarded: the trial engine's worker domains share it.

   The counters are deliberately *derived*, not event-counted.  Under
   DIPP_JOBS>1 two domains can both miss the same fresh key and both run
   the closure; per-event hit/miss increments would then depend on the
   schedule, and the stdout report would vary run to run.  Instead we
   keep one atomic lookup total and derive
     misses = distinct keys in the table, hits = lookups - misses,
   both pure functions of the work set — the report line is identical
   for every DIPP_JOBS value. *)

type outcome = Dip.verdict * Dip.stats

let table : (string, outcome) Hashtbl.t = Hashtbl.create 256
let lock = Mutex.create ()
let lookups = Atomic.make 0

let enabled () =
  match Sys.getenv_opt "DIPP_LABEL_CACHE" with Some "0" -> false | Some _ | None -> true

let key ~protocol ~instance ~seed =
  Sha256.hex (String.concat "\x00" [ protocol; instance; string_of_int seed ])

let lr_key (inst : Lr_sorting.instance) =
  (* the underlying graph forgets arc orientation and the path order, both
     of which the prover's labels depend on — hash the full instance *)
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "lr n=%d\npath " inst.Lr_sorting.n);
  Array.iter (fun v -> Buffer.add_string b (string_of_int v ^ ",")) inst.Lr_sorting.path;
  Buffer.add_string b "\narcs ";
  List.iter (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%d>%d," u v)) inst.Lr_sorting.arcs;
  Sha256.hex (Buffer.contents b)

let find_or_run ~key f =
  if not (enabled ()) then f ()
  else begin
    Atomic.incr lookups;
    Mutex.lock lock;
    let cached = Hashtbl.find_opt table key in
    Mutex.unlock lock;
    match cached with
    | Some outcome -> outcome
    | None ->
        let outcome = f () in
        Mutex.lock lock;
        (* a racing domain may have filled the slot meanwhile; both computed
           the same pure value, so either write is fine — and the derived
           counters collapse the duplicate miss *)
        Hashtbl.replace table key outcome;
        Mutex.unlock lock;
        outcome
  end

let stats () =
  let l = Atomic.get lookups in
  Mutex.lock lock;
  let distinct = Hashtbl.length table in
  Mutex.unlock lock;
  let m = min distinct l in
  (l - m, m)

let hit_rate () =
  let h, m = stats () in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock;
  Atomic.set lookups 0

let report () =
  if not (enabled ()) then "label-cache: disabled (DIPP_LABEL_CACHE=0)"
  else
    let h, m = stats () in
    Printf.sprintf "label-cache: %d hits / %d lookups (%.1f%% hit rate), %d distinct key(s)" h
      (h + m)
      (100. *. hit_rate ())
      m
