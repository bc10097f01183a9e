type t = { mutable state : int64; seed : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let s = mix (Int64.of_int seed) in
  { state = s; seed = s }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t salt =
  let s = mix (Int64.add t.seed (Int64.mul (Int64.of_int (salt + 1)) golden)) in
  { state = s; seed = s }

(* FNV-1a 64-bit over the label, finalized through the SplitMix64 mixer so
   labels differing in a few low bits land in unrelated streams. *)
let split_string t label =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length label - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code label.[i]))) 0x100000001B3L
  done;
  let s = mix (Int64.add t.seed (mix !h)) in
  { state = s; seed = s }

let derive seed label = Int64.to_int (split_string (create seed) label).seed

let bool t = Int64.logand (bits64 t) 1L = 1L

(* Rejection sampling over the low 62 bits to avoid modulo bias.  [draw]
   is top-level so that a call allocates no closure over [t] and [bound]. *)
let mask = 0x3FFF_FFFF_FFFF_FFFF

let rec draw t bound limit =
  let v = Int64.to_int (bits64 t) land mask in
  if v >= limit then draw t bound limit else v mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  draw t bound (mask - (mask mod bound))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
