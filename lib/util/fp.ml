type t = { p : int }

let create p =
  if not (Prime.is_prime p) then invalid_arg "Fp.create: not prime";
  if p > (1 lsl 31) - 1 then invalid_arg "Fp.create: modulus too large";
  { p }

let of_int t x =
  let r = x mod t.p in
  if r < 0 then r + t.p else r

let add t a b = (a + b) mod t.p
let sub t a b = of_int t (a - b)
let mul t a b = a * b mod t.p

let pow t b e =
  if e < 0 then invalid_arg "Fp.pow";
  let rec go b e acc =
    if e = 0 then acc
    else go (mul t b b) (e lsr 1) (if e land 1 = 1 then mul t acc b else acc)
  in
  go (of_int t b) e 1

let inv t a =
  let a = of_int t a in
  if a = 0 then invalid_arg "Fp.inv: zero";
  pow t a (t.p - 2)

let sample t rng = Rng.int rng t.p

let bit_width t = max 1 (Ilog.ceil_log2 t.p)
