(** Sharded execution of {!Net} protocols across Domains.

    The same engine as {!Net.execute} ({!Net.execute_partitioned}), with
    the graph split into several blocks stepped on a Domain pool.  The
    returned {!Net.result} is identical to {!Net.execute}'s for every
    shard count, worker count and partition seed (the determinism
    contract in net.mli), and the preconditions are the same. *)

type run_stats = Net.run_stats = {
  shards : int;
  windows : int;
  events : int;
  cross_messages : int;
}
(** See {!Net.run_stats}. *)

val default_shards : unit -> int
(** The [DIPP_SHARDS] environment variable if set to a positive integer
    (clamped to [\[1, 64\]]), else 4.  A set-but-invalid value degrades to
    1 with a one-line warning, mirroring [DIPP_JOBS] handling.  The shard
    count never changes any result — only the parallel layout. *)

val execute_ex :
  ?config:Net.config ->
  ?mode:Net.degradation ->
  ?shards:int ->
  ?jobs:int ->
  ?partition_seed:int ->
  rng:Rng.t ->
  model:Fault.model ->
  Net.protocol ->
  Net.result * run_stats
(** [shards] defaults to {!default_shards}[ ()]; [jobs] (the Domain
    count, clamped to [\[1, 64\]] and to the shard count) defaults to
    [Domain.recommended_domain_count ()]; [partition_seed] defaults
    to 0. *)

val execute :
  ?config:Net.config ->
  ?mode:Net.degradation ->
  ?shards:int ->
  ?jobs:int ->
  ?partition_seed:int ->
  rng:Rng.t ->
  model:Fault.model ->
  Net.protocol ->
  Net.result
(** [fst (execute_ex ...)]. *)
