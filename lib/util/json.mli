(** JSON string literals for the hand-written report files
    (trials, faults, bounds, serve and lint reports). *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the enclosing
    quotes: double quote and backslash are backslash-escaped, newline,
    tab and carriage return use their short forms, other bytes below
    0x20 become [\u00XX], and everything else passes through unchanged. *)
