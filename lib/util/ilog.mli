(** Integer logarithms: the one bit-width computation label sizes share. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the smallest [w >= 0] with [2^w >= n]: [0] for
    [n <= 1], so the bits that hold [n] distinct values.  Callers that need
    at least one bit write [max 1 (ceil_log2 n)]; a width for the values
    [0 .. x] is [ceil_log2 (x + 1)].  Requires [n <= 2^61]. *)
