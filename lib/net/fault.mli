(** Pluggable link/node fault models for the {!Net} runtime.

    A [model] is a bundle of per-message fault probabilities (drop,
    bit-corruption, duplication, extra delay) plus a per-node crash-stop
    probability.  Every random draw is taken from an {!Rng} stream derived
    with {!Rng.split_string} from the run seed and a textual key — the link
    id and delivery index for message faults, the node id for crashes — so
    a fault schedule is a pure function of [(seed, key)] and is identical
    for every worker count and event-processing order.  A stream is
    derived only when a draw happens: a transmission or node that draws
    nothing (every rate it meets is 0, or a certain drop or duplicate)
    formats no key and hashes nothing. *)

type model = {
  name : string;  (** short id, used in sweep reports *)
  drop : float;  (** P(transmission silently lost, all copies) *)
  corrupt : float;  (** P(one uniformly chosen payload bit flipped), per copy *)
  duplicate : float;  (** P(a second copy is sent) *)
  delay : float;  (** P(a copy is held back), per copy *)
  max_delay : int;  (** held-back copies arrive [1..max_delay] ticks later *)
  crash : float;  (** P(a node crash-stops at a uniform round) *)
}

val reliable : model
(** No faults: the runtime degenerates to a synchronous exchange. *)

val drop : rate:float -> model
val corrupt : rate:float -> model
val duplicate : rate:float -> model

val delay : ?max_delay:int -> rate:float -> unit -> model
(** Default [max_delay] is 96 ticks — far past the default per-round
    deadline, so delayed copies exercise both reordering and late loss. *)

val crash : rate:float -> model

val chaos : rate:float -> model
(** All five fault kinds at once, each scaled from [rate]. *)

val by_name : string -> rate:float -> (model, string) Stdlib.result
(** Resolve a model by its [name] field (CLI/report front end).  [Error]
    names an unknown model, or a [rate] that is not finite or lies
    outside [0, 1]. *)

type delivery = { at : int; payload : Bits.t; corrupted : bool }

type outcome = { deliveries : delivery list; was_dropped : bool; was_duplicated : bool }

val transmit :
  rng:Rng.t ->
  src:int ->
  dst:int ->
  ix:int ->
  now:int ->
  latency:int ->
  model ->
  Bits.t ->
  outcome
(** One transmission attempt of [payload] on the directed link
    [src -> dst]: the fault draws come from the stream keyed by
    [(rng seed, "src>dst#ix")]; delivered copies carry their (possibly
    corrupted) payload and absolute arrival time [now + latency + extra].
    The stream is derived only when a draw happens (some rate strictly
    between 0 and 1, or a corrupted bit's index or a delay's length to
    pick): under {!reliable} a transmission formats no key and hashes
    nothing.  The draws are the same as an eager derivation's. *)

val crash_round : rng:Rng.t -> node:int -> rounds:int -> model -> int option
(** [Some r] iff the node crash-stops at the start of round [r]; drawn from
    the stream keyed by [(rng seed, "crash#node")], derived only when a
    draw happens ([crash] above 0). *)

val pp : Format.formatter -> model -> unit
