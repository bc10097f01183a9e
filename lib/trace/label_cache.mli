(** Content-addressed honest-prover label cache.

    Memoizes a protocol execution's [(verdict, stats)] under the SHA-256
    of (protocol id, canonical instance content, seed).  Since a run is a
    pure function of exactly those inputs, a hit returns what the closure
    would have computed: every consumer (the trial engine, the fault
    sweep) emits byte-identical reports with the cache on or off.  Hit
    statistics are reported to stdout only, never written into the JSON
    records (ANALYSIS.md determinism contract) — and they are {e derived}
    (hits = lookups − distinct keys) rather than event-counted, so the
    stdout report is itself deterministic w.r.t. [DIPP_JOBS]: a racing
    duplicate miss does not skew the counts.

    [DIPP_LABEL_CACHE=0] disables the cache (every lookup runs the
    closure and nothing is stored).  The table is process-wide and safe
    to share across the engine's worker domains. *)

val enabled : unit -> bool

val key : protocol:string -> instance:string -> seed:int -> string
(** The content address.  [instance] must determine every input the
    prover and verifier read besides the seed; {!Family.honest} passes
    the family instance's content key. *)

val lr_key : Lr_sorting.instance -> string
(** Hashes n, the full path order, and the directed arc list — the
    underlying undirected graph alone would conflate instances that
    differ only in arc orientation. *)

val find_or_run : key:string -> (unit -> Dip.verdict * Dip.stats) -> Dip.verdict * Dip.stats
(** Returns the cached outcome or runs the closure and stores it.  When
    the cache is disabled, always runs the closure. *)

val stats : unit -> int * int
(** [(hits, misses)] since the last {!reset}, derived as
    [(lookups - distinct, distinct)] where [distinct] is the number of
    keys in the table — a pure function of the work set, independent of
    how lookups interleaved across domains. *)

val hit_rate : unit -> float

val reset : unit -> unit

val report : unit -> string
(** One stdout-ready line: hits/lookups, hit rate, distinct key count
    (or a note that the cache is disabled). *)
