(* The label cursor: every protocol writes and reads its labels through
   Enc/Dec, and the codec chosen at creation picks the backend.

   Flat encodes into a preallocated byte buffer with raw index arithmetic
   and decodes by walking a bit cursor over the source bitstring's backing
   bytes, instead of building a Bits.t value per field.  The bit layout is
   identical to Bits — bit [i] in byte [i lsr 3], mask [1 lsl (i land 7)],
   integer fields MSB-first across positions — so both backends produce
   the same bytes and read each other's labels.  Checked delegates to
   Bits.Writer/Bits.Reader and stays the reference; the differential
   suite in test_serve.ml holds the two together.
   This file is the only place that dispatches on a codec. *)

type codec = Checked | Flat

module Enc = struct
  type buf = { mutable len : int; mutable data : Bytes.t }

  type t = Buf of buf | Writer of { mutable w : Bits.Writer.t }

  (* [capacity] is a preallocation floor on top of the per-label hint
     [cap]: a reset-reused encoder sized from a Bounds envelope never
     climbs the grow ladder, however the individual labels interleave. *)
  let create codec ?(capacity = 0) cap =
    match codec with
    | Checked -> Writer { w = Bits.Writer.create () }
    | Flat ->
        let bits = max 1 (max cap capacity) in
        Buf { len = 0; data = Bytes.make ((bits + 7) / 8) '\000' }

  (* Reset without re-zeroing the whole buffer: only bits < len were ever
     set, and set_bit below writes both 0 and 1, so stale bytes beyond the
     new cursor are re-written before they are ever read. *)
  let reset = function
    | Buf e -> e.len <- 0
    | Writer c -> c.w <- Bits.Writer.create ()

  let grow e need =
    let cur = Bytes.length e.data in
    if need > cur * 8 then begin
      let nbytes = ref (if cur = 0 then 1 else cur) in
      while need > !nbytes * 8 do
        nbytes := !nbytes * 2
      done;
      let data = Bytes.make !nbytes '\000' in
      Bytes.blit e.data 0 data 0 cur;
      e.data <- data
    end

  (* Unconditional write of bit [i]: clears then sets, so a reset encoder
     reuses its buffer without a zero-fill pass. *)
  let set_bit e i b =
    let j = i lsr 3 in
    let mask = 1 lsl (i land 7) in
    let c = Char.code (Bytes.unsafe_get e.data j) in
    let c = if b then c lor mask else c land lnot mask in
    Bytes.unsafe_set e.data j (Char.unsafe_chr c)

  let bool t b =
    match t with
    | Buf e ->
        grow e (e.len + 1);
        set_bit e e.len b;
        e.len <- e.len + 1
    | Writer c -> Bits.Writer.bool c.w b

  (* Validated here rather than per backend, so both raise the same
     message on a bad field. *)
  let int t ~width v =
    if width < 0 || width > 62 then invalid_arg "Bits_flat.Enc.int: width";
    if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg "Bits_flat.Enc.int: value";
    match t with
    | Buf e ->
        grow e (e.len + width);
        for k = 0 to width - 1 do
          set_bit e (e.len + k) ((v lsr (width - 1 - k)) land 1 = 1)
        done;
        e.len <- e.len + width
    | Writer c -> Bits.Writer.int c.w ~width v

  let bits t b =
    match t with
    | Buf e ->
        let n = Bits.length b in
        grow e (e.len + n);
        let src = Bits.unsafe_data b in
        for k = 0 to n - 1 do
          set_bit e (e.len + k)
            (Char.code (Bytes.unsafe_get src (k lsr 3)) land (1 lsl (k land 7)) <> 0)
        done;
        e.len <- e.len + n
    | Writer c -> Bits.Writer.bits c.w b

  let to_bits = function
    | Buf e ->
        (* Bits.of_bytes re-zeroes the tail bits, restoring the structural-
           equality invariant that reset-and-reuse may have dirtied. *)
        Bits.of_bytes ~len:e.len (Bytes.sub e.data 0 ((e.len + 7) / 8))
    | Writer c -> Bits.Writer.contents c.w
end

module Dec = struct
  type cursor = { len : int; data : Bytes.t; mutable pos : int }

  type t = Cursor of cursor | Reader of Bits.Reader.t

  (* [data] aliases the source bitstring's buffer (Bits.unsafe_data) and is
     only ever read; [len] bounds every access, so the byte reads below can
     skip their own checks. *)
  let of_bits codec b =
    match codec with
    | Checked -> Reader (Bits.Reader.of_bits b)
    | Flat -> Cursor { len = Bits.length b; data = Bits.unsafe_data b; pos = 0 }

  let left d = d.len - d.pos

  let remaining = function Cursor d -> left d | Reader r -> Bits.Reader.remaining r

  let bit d i =
    Char.code (Bytes.unsafe_get d.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let bool = function
    | Cursor d ->
        if d.pos >= d.len then raise Bits.Reader.Underflow;
        let b = bit d d.pos in
        d.pos <- d.pos + 1;
        b
    | Reader r -> Bits.Reader.bool r

  let int t ~width =
    match t with
    | Cursor d ->
        if width < 0 || width > left d then raise Bits.Reader.Underflow;
        let v = ref 0 in
        for k = 0 to width - 1 do
          v := (!v lsl 1) lor (if bit d (d.pos + k) then 1 else 0)
        done;
        d.pos <- d.pos + width;
        !v
    | Reader r -> Bits.Reader.int r ~width

  let parse codec b f =
    let d = of_bits codec b in
    match f d with
    | v -> if remaining d = 0 then Some v else None
    | exception Bits.Reader.Underflow -> None
end

let read_int b ~pos ~width =
  let len = Bits.length b in
  if pos < 0 || width < 0 || width > 62 || pos + width > len then
    invalid_arg
      (Printf.sprintf "Bits_flat.read_int: slice [%d, %d+%d) out of range for length %d" pos pos
         width len);
  let data = Bits.unsafe_data b in
  let v = ref 0 in
  for k = 0 to width - 1 do
    let i = pos + k in
    v :=
      (!v lsl 1)
      lor (Char.code (Bytes.unsafe_get data (i lsr 3)) lsr (i land 7) land 1)
  done;
  !v

(* No range check: like Bits.unsafe_sub, reserved for call sites the
   refine-index pass has proved in-bounds — an unverified call site is a
   lint finding.  Out-of-range bit indices read whatever the backing
   buffer holds (including past its end: a crash), which is why the gate
   is static. *)
let unsafe_int b ~pos ~width =
  let data = Bits.unsafe_data b in
  let v = ref 0 in
  for k = 0 to width - 1 do
    let i = pos + k in
    v :=
      (!v lsl 1)
      lor (Char.code (Bytes.unsafe_get data (i lsr 3)) lsr (i land 7) land 1)
  done;
  !v
