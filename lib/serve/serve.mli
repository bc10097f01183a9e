(** Batched verification service.

    Consumes a stream of (family, instance parameters, seed) verification
    requests and answers at maximum throughput: instance construction is
    amortized across requests sharing a topology via a content-addressed
    {!Prepared_cache}, honest-prover executions are memoized through
    {!Label_cache}, and batches fan out over the Domain pool.

    Determinism contract: the response log and its digest are pure
    functions of the request stream — identical for every [DIPP_JOBS]
    value and with the caches on or off.  Only latencies and throughput
    are timing-dependent, and they never enter the log. *)

type request = {
  family : string;  (** one of {!family_names} *)
  n : int;  (** size parameter, interpreted per family *)
  gseed : int;  (** instance generator seed *)
  seed : int;  (** verification run seed *)
  budget : int;  (** max per-node label bits the client accepts *)
}

type response = {
  index : int;  (** position in the request stream *)
  req : request;
  accepted : bool;  (** verdict accepted and max label within [budget] *)
  nodes : int;  (** actual node count of the prepared instance *)
  max_bits : int;
  proof_bits : int;
}

type outcome = { response : response; latency_s : float }

val family_names : string list
(** The seven protocol families, in binary-id order. *)

val max_request_n : int

(* ---- request stream codec -------------------------------------------- *)

val magic : string
(** First bytes of the binary stream format, ["DIPP-SERVE 1\n"]. *)

val requests_to_text : request array -> string
(** One request per line: [family n gseed seed budget]; [#] comments and
    blank lines are ignored on parse. *)

val requests_to_binary : request array -> string
(** [magic] then 17-byte frames: u8 family id, u32be n/gseed/seed/budget. *)

val parse_requests : string -> (request array, string) Stdlib.result
(** Sniffs the format by {!magic} and parses.  [Error] reports the first
    malformed line or frame (truncation, unknown family id, bad field). *)

(* ---- prepared-instance cache ------------------------------------------ *)

module Prepared_cache : sig
  val set_capacity : int -> unit
  (** Bound the resident instance count (clamped to >= 1).  Eviction keeps
      the smallest keys by byte order — a schedule-independent resident
      set, unlike FIFO/LRU. *)

  val stats : unit -> int * int * int * int
  (** [(lookups, distinct, resident, capacity)].  All four are pure
      functions of the work set, never of the domain schedule. *)

  val reset : unit -> unit
  (** Empty the cache, zero the counters, restore the default capacity. *)

  val report : unit -> string
end

(* ---- execution --------------------------------------------------------- *)

exception Bad_request of string
(** A malformed request: unknown family, size or seed out of range, or a
    label budget beyond the family's registry envelope.  Raised by
    {!execute} before any pooled work starts (exit code 2 at the CLI). *)

val execute : ?jobs:int -> request array -> outcome array
(** Answers every request, in request order.  Raises {!Bad_request} if any
    request fails validation — checked up front so a bad request never
    reaches a worker domain. *)

(* ---- response log ------------------------------------------------------ *)

val response_line : response -> string

val response_log : outcome array -> string array
(** One line per request, in request order (already order-normalized). *)

val log_digest : string array -> string
(** SHA-256 over the newline-joined log. *)

val monotonic_latency : t0:float -> t1:float -> float
(** [t1 -. t0] clamped at 0: wall-clock reads can go backwards under an
    NTP slew or step, and a latency is never negative. *)

val percentile : float array -> pct:int -> float option
(** Nearest-rank percentile of a sorted array, [pct] in [1, 100]; integer
    rank arithmetic throughout.  [None] on an empty array or a [pct] out
    of range. *)

val latency_percentiles : outcome array -> (float * float) option
(** [(p50, p99)] in seconds; [None] on an empty outcome array. *)
