(** Deterministic discrete-event message-passing runtime for DIP execution.

    The synchronous harness hands every decision function its neighbors'
    labels by direct call; this runtime replaces that step with real
    messages.  A {!protocol} value names, per prover round, the label each
    node must ship to each neighbor; {!execute} turns every (round, edge)
    pair into transmissions on a per-edge link governed by a {!Fault.model}
    (drop, delay/reorder, duplication, bit corruption, node crash), with
    per-message acknowledgements, timeout-driven retransmission under
    bounded exponential backoff, and a per-round receive deadline.

    After the events drain, every live node runs the protocol's local
    check against the labels that actually arrived, under a {!degradation}
    policy: [Strict] rejects unless the full neighborhood was heard;
    [Degrade] skips unheard neighbors but rejects on quorum loss.  The run
    accepts iff no live node rejects (and at least one node survived).

    The engine splits the nodes into blocks ({!Dipp_graph.Partition})
    and advances them in conservative time windows: every window
    processes the events in [\[T, T + W)] where [T] is the global minimum
    pending event time and the lookahead [W = max 1 (min latency timeout)]
    under-approximates the minimum scheduling distance (every handled
    event schedules its successors at least that many ticks later), so no
    event generated inside a window can land in that same window.
    Arrivals owned by another block are returned as pure values and
    merged between windows.  {!execute} runs one block on the calling
    domain; {!Shard} runs several on a Domain pool.

    Each block keeps a calendar: a bucket of events per pending tick
    (two key ints and a payload per event) and a small heap of the
    pending ticks.  A window drains its ticks in order, each bucket
    sorted once by event key (a merge of the already-ordered runs it was
    pushed in).  Per-link and per-round state lives in flat arrays over
    edge slots: each block's members own a contiguous run of slots, one
    per incident directed edge in adjacency order, so the slot of
    [u -> v] is [u]'s base plus [v]'s index among [u]'s neighbors, and
    every slot belongs to exactly one block.

    {2 Determinism contract}

    A run's {!result} is a pure function of
    [(protocol, config, mode, model, rng seed)] — byte-identical across
    machines, and independent of the block count, the worker count and
    the partition seed:

    - every fault draw comes from an {!Rng} stream keyed by
      [(seed, link id, delivery index)] (crashes: [(seed, node id)]) via
      {!Rng.split_string};
    - every event has a unique owner node (a [Send] and an [Ack] execute
      at their source, a [Data] at its destination), and all mutable
      runtime state sits at the owner's edge slots — so two events
      interact only when they share an owner, and a block boundary can
      never sit between them;
    - events are ordered by a structural key
      [(time, kind, round, src, dst, attempt, copy)] computed from the
      event alone (no global insertion counter), so each owner processes
      its events in the same order under any partition; the only key
      collisions are between [Ack]s of the same [(src, dst, round)],
      whose effects commute;
    - per-link delivery indices (the {!Fault} stream keys) are assigned
      by the link's origin node in that same structural order, so the
      fault schedule is partition-invariant;
    - the decision phase runs per block but is merged in ascending node
      order, so float accumulation ([heard]) associates identically for
      every block count. *)

type config = {
  latency : int;  (** base link latency, ticks *)
  timeout : int;  (** initial retransmission timeout; doubles per attempt *)
  retries : int;  (** retransmission attempts after the first send *)
  phase_gap : int;  (** ticks between consecutive round starts *)
  deadline : int;  (** a round's labels must arrive within this many ticks *)
}

val default_config : config
(** [{latency = 1; timeout = 4; retries = 3; phase_gap = 64; deadline = 60}]:
    the full backoff chain (4 + 8 + 16 ticks) and a moderately delayed last
    copy still meet the deadline; anything slower is late. *)

type degradation =
  | Strict  (** reject unless every neighbor's every round arrived intact *)
  | Degrade of { quorum : float }
      (** decide from the labels that arrived; reject iff the fraction of
          fully-heard neighbors falls below [quorum] *)

type protocol = {
  name : string;
  graph : Graph.t;  (** the communication graph *)
  rounds : Bits.t array array;  (** [rounds.(r).(v)]: node [v]'s round-[r] label *)
  checksum : bool;
      (** with a frame check, corrupted arrivals are detected and discarded
          (the retransmission chain covers them like drops); without it the
          corrupted bits reach the decision function *)
  node_check : int -> (int -> Bits.t array option) -> bool;
      (** [node_check v recv]: the local decision at [v], reading neighbor
          [u]'s labels through [recv u] — [Some] per-round payloads iff every
          round from [u] arrived (possibly corrupted when [checksum] is
          off), [None] otherwise.  Must skip checks that need an unheard
          neighbor (the policy layer has already applied Strict/quorum). *)
}

type stats = {
  sent : int;  (** transmission attempts (data frames) *)
  delivered : int;  (** frames that reached a receiver (data + acks) *)
  dropped : int;  (** transmissions lost to the drop fault *)
  corrupted : int;  (** delivered copies with a flipped bit *)
  duplicated : int;  (** transmissions that spawned a second copy *)
  late : int;  (** valid frames discarded for missing the round deadline *)
  retransmits : int;  (** sends with attempt > 0 *)
  acks : int;  (** acknowledgements issued *)
}

type result = {
  accepted : bool;  (** no live node rejected, and someone survived *)
  rejecting : int list;  (** live nodes that rejected, ascending *)
  crashed_nodes : int list;  (** crash-stopped nodes, ascending *)
  heard : float;  (** mean fraction of fully-heard neighbors over live nodes *)
  stats : stats;
}

type run_stats = {
  shards : int;  (** block count actually used (clamped to [\[1, 64\]] and to [n]) *)
  windows : int;  (** synchronization windows executed *)
  events : int;  (** events processed, summed over blocks *)
  cross_messages : int;
      (** scheduled arrivals whose origin and owner lie in different
          blocks — the merge traffic; depends on the partition, so it
          never feeds a report that must be block-count-invariant *)
}

val execute :
  ?config:config -> ?mode:degradation -> rng:Rng.t -> model:Fault.model -> protocol -> result
(** Runs the full exchange-and-decide pipeline on one block.  [mode]
    defaults to [Strict].  With {!Fault.reliable}, every label arrives on
    time and the result reduces to the protocol's synchronous verdict
    (completeness is preserved).

    Preconditions, checked before any event runs (each violation raises
    [Invalid_argument]): [config.latency >= 1] and [config.timeout >= 1]
    (the window lookahead), [0 <= config.retries <= 14], at most 255
    rounds, and [n < 2^27] (the event-key packing: an event is two
    machine ints, node ids packed beside kind, round, attempt and copy). *)

val execute_partitioned :
  ?config:config ->
  ?mode:degradation ->
  shards:int ->
  jobs:int ->
  partition_seed:int ->
  rng:Rng.t ->
  model:Fault.model ->
  protocol ->
  result * run_stats
(** The engine behind {!execute} and {!Shard.execute_ex}: [shards] blocks
    (clamped to [\[1, 64\]]) drawn by {!Dipp_graph.Partition.make}
    [~seed:partition_seed], stepped on up to [jobs] domains
    ({!Dipp_util.Pool.run}).  Same preconditions as {!execute}; the
    {!result} never depends on [shards], [jobs] or [partition_seed]. *)

val pp_stats : Format.formatter -> stats -> unit

val replay_check : protocol -> frames:Bits.t array array -> Dip.verdict
(** Decision-only replay against recorded round payloads: every node's
    {!protocol.node_check} runs with [recv u = Some] of u's per-round
    labels from [frames] ([frames.(r).(u)] = node u's round-r label) —
    no event queue, no coins, no prover work.  With [frames] equal to
    the protocol's own [rounds], this is the fault-free verdict; the
    transcript subsystem uses it to replay network traces. *)
