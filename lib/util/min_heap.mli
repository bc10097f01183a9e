(** Array-backed binary min-heap with a fixed three-integer key.

    Entries are ordered by the lexicographic order on [(k0, k1, k2)].  The
    pop order among entries with {e equal} keys is unspecified (it depends
    on insertion order).  The network engine ({!Dipp_net.Net}) keeps only
    its pending ticks here, one entry per tick that has events, keyed
    [(tick, 0, 0)]; the events themselves sit in per-tick buckets.

    The backing arrays grow geometrically and never shrink; popped value
    slots are overwritten with the [dummy] given at creation so the heap
    retains no hidden pointers to retired payloads. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** Fresh empty heap.  [capacity] (default 16) pre-sizes the arrays. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> k0:int -> k1:int -> k2:int -> 'a -> unit
(** Inserts; O(log size). *)

val min_key : 'a t -> (int * int * int) option
(** The smallest key, without removing it. *)

val min_k0 : 'a t -> int option
(** First component of the smallest key (the next pending tick in the network engine). *)

val pop_min : 'a t -> (int * int * int * 'a) option
(** Removes and returns the entry with the smallest key; O(log size). *)

val clear : 'a t -> unit
(** Empties the heap, overwriting retained values with [dummy]. *)
