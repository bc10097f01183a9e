(** Deterministic, splittable pseudo-random source.

    Every protocol run is seeded so experiments are reproducible.  The
    generator is SplitMix64: fast, well distributed, and splittable — each
    node of the distributed verifier gets an independent stream derived from
    the run seed and its node id, which mirrors the model's assumption of
    independent per-node coins. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. *)

val split : t -> int -> t
(** [split t salt] derives an independent generator; the same [(t-seed,
    salt)] pair always yields the same stream. *)

val split_string : t -> string -> t
(** [split_string t label] derives an independent generator keyed by a
    textual label (e.g. an experiment id).  Like {!split}, the derivation
    depends only on [t]'s seed and [label] — never on how much of [t] has
    been consumed — so derived streams are stable no matter which worker
    domain draws them, or in which order.

    {b Domain-separation invariant.}  Distinct key strings yield
    (statistically) independent streams: the key is hashed in full
    (FNV-1a 64 finalized through the SplitMix64 mixer), so keys differing
    in any byte — including the empty string versus any non-empty key, and
    a key versus any proper prefix of it — land in unrelated streams.
    What the hash can {e not} do is distinguish two different
    decompositions of the same concatenated text: callers that build keys
    by concatenating fields must keep the fields self-delimiting
    (separator characters that cannot appear in the fields, as in the
    engine's ["e2/forge-pairs/c3"] ids, the net runtime's ["3>7"] link
    ids, and the transcript subsystem's ["inst|<family>"] cache keys) —
    otherwise ["ab" ^ "c"] and ["a" ^ "bc"] would collide by
    construction.  The QCheck suite in [test/test_util.ml] exercises both
    halves of this contract. *)

val derive : int -> string -> int
(** [derive seed label] is the seed of the stream
    [split_string (create seed) label]: the seed of a sub-run named
    [label] inside a run seeded [seed].  A composite protocol hands each
    sub-run [~seed:(derive seed name)], with the name taken from the
    sub-run's place in the reduction (["lr"], ["block/3"], ["ear/12"]),
    never an offset added to [seed]: distinct names give independent
    seeds, none of them [seed] itself. *)

val bits64 : t -> int64
val bool : t -> bool

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
