(** The label cursor: one encoder and one decoder interface that every
    protocol writes its labels against, with the backend chosen by a
    {!codec} when the cursor is created.

    [Flat] appends fields into one preallocated byte buffer with raw index
    arithmetic, and decodes by walking a bit cursor over the source
    bitstring's backing bytes.  [Checked] delegates to {!Bits.Writer} /
    {!Bits.Reader} and is the reference backend.  The bit layout is the
    same under both, so [Enc.to_bits] returns the same bytes whichever
    backend wrote them and either [Dec] reads any label.  test_serve.ml
    holds the two backends together differentially, on honest and on
    mutated labels. *)

type codec = Checked | Flat
(** The cursor backend.  [Checked] is the reference
    {!Bits.Writer}/{!Bits.Reader} path; [Flat] is the preallocated
    buffer. *)

module Enc : sig
  type t

  val create : codec -> ?capacity:int -> int -> t
  (** [create codec ?capacity cap] starts an empty label.  Under [Flat] it
      preallocates for [max cap capacity] bits; the buffer grows by
      doubling if exceeded, so both are sizing hints, not limits.
      [capacity] is a preallocation floor for reset-reused encoders: pass
      the protocol's registry envelope (see {!Bounds}) and the serve path
      never pays the grow ladder.  [Checked] ignores both. *)

  val reset : t -> unit
  (** Rewind to empty for reuse; O(1), no zero-fill. *)

  val bool : t -> bool -> unit

  val int : t -> width:int -> int -> unit
  (** Same contract as {!Bits.of_int}: requires [0 <= v < 2^width] and
      [0 <= width <= 62]; raises [Invalid_argument] otherwise, with the
      same message under both backends. *)

  val bits : t -> Bits.t -> unit
  (** Append an existing bitstring. *)

  val to_bits : t -> Bits.t
  (** Snapshot the written prefix as an immutable bitstring (copies). *)
end

module Dec : sig
  type t

  val of_bits : codec -> Bits.t -> t
  (** Zero-copy under both backends: the cursor reads the bitstring in
      place. *)

  val bool : t -> bool
  val int : t -> width:int -> int

  val remaining : t -> int
  (** All reads raise {!Bits.Reader.Underflow} past the end under both
      backends; verifiers treat that as a malformed label. *)

  val parse : codec -> Bits.t -> (t -> 'a) -> 'a option
  (** [parse codec b f] runs the decoder [f] over the whole of [b]:
      [None] if a read underflows or bits are left over, so a label
      decoder built on it is a strict inverse of its encoder. *)
end

val read_int : Bits.t -> pos:int -> width:int -> int
(** Random-access field read.  Raises [Invalid_argument] naming the
    offending slice and the length when [pos, pos+width) is out of range
    (same shape as the {!Bits.sub} message). *)

val unsafe_int : Bits.t -> pos:int -> width:int -> int
(** {!read_int} without the range check.  Reserved for call sites the
    [refine-index] pass of dipp-lint has proved in-bounds — any call site
    the pass cannot verify is a lint finding.  Out-of-range positions read
    garbage or crash rather than raising. *)
