(** The transcript corpus registry: pinned honest instances E1-E8 with
    record and replay on both runtimes.

    Each entry is one row over the family table: a {!Family.t} and the
    generator constants [(n, gseed)] (independent of the run seed), so a
    {!Trace.t} is self-describing: its experiment id picks the entry
    (hence the instance), its seed re-drives the coins.

    Replay modes:
    - {e decision-only} — only the per-node decision functions re-run
      against the recorded frames: traces of a family whose instance has
      a [decide] (LR-sorting, E1/E2) through the protocol's strict label
      decoders, and every network trace through {!Net.replay_check};
    - {e re-execution} — composite protocols (E3-E8) on the synchronous
      runtime re-run deterministically from the recorded seed and the
      fresh trace is byte-diffed against the recorded one.

    Every replay first checks the graph digest (the registry instance
    must be the recorded one) and finishes by checking the recorded
    per-phase bit counts against the frames. *)

type entry = {
  id : string;  (** experiment id, ["E1"].."E8"] *)
  family : Family.t;
  n : int;  (** size parameter passed to [family.build] *)
  gseed : int;
  recipe : string;  (** human-readable instance recipe, written into the trace *)
}

type replay_report = { mode : string; verdict : Dip.verdict }

val entries : entry list
val ids : string list
val find : string -> entry option

val record : ?runtime:Trace.runtime -> entry -> seed:int -> Trace.t
(** Runs the entry's pinned instance honestly with [seed] and packages
    the transcript.  [Net_runtime] ships the run over the reliable
    network (checksummed transport) and records the per-round payloads
    and the network verdict. *)

val replay : Trace.t -> (replay_report, string) Stdlib.result
(** Replays a trace against the registry.  [Ok] means the replayed
    verdict, the frames, and the per-phase bit counts all match the
    recording byte for byte; [Error] names the first divergence. *)
