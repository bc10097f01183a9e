(* Classic binary heap over parallel arrays: three int arrays for the key
   components (kept unboxed) plus one value array.  Sift loops compare keys
   inline, with no closure calls. *)

type 'a t = {
  mutable k0 : int array;
  mutable k1 : int array;
  mutable k2 : int array;
  mutable v : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  let cap = max 1 capacity in
  {
    k0 = Array.make cap 0;
    k1 = Array.make cap 0;
    k2 = Array.make cap 0;
    v = Array.make cap dummy;
    len = 0;
    dummy;
  }

let size h = h.len
let is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.k0 in
  let cap' = cap * 2 in
  let g a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 h.len;
    a'
  in
  h.k0 <- g h.k0 0;
  h.k1 <- g h.k1 0;
  h.k2 <- g h.k2 0;
  h.v <- g h.v h.dummy

(* strict key order: (k0,k1,k2) at [i] < at [j] *)
let less h i j =
  let a = h.k0.(i) and b = h.k0.(j) in
  if a <> b then a < b
  else
    let a = h.k1.(i) and b = h.k1.(j) in
    if a <> b then a < b else h.k2.(i) < h.k2.(j)

let swap h i j =
  let t0 = h.k0.(i) in
  h.k0.(i) <- h.k0.(j);
  h.k0.(j) <- t0;
  let t1 = h.k1.(i) in
  h.k1.(i) <- h.k1.(j);
  h.k1.(j) <- t1;
  let t2 = h.k2.(i) in
  h.k2.(i) <- h.k2.(j);
  h.k2.(j) <- t2;
  let tv = h.v.(i) in
  h.v.(i) <- h.v.(j);
  h.v.(j) <- tv

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less h i p then begin
      swap h i p;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 in
  if l < h.len then begin
    let c = if l + 1 < h.len && less h (l + 1) l then l + 1 else l in
    if less h c i then begin
      swap h i c;
      sift_down h c
    end
  end

let push h ~k0 ~k1 ~k2 x =
  if h.len = Array.length h.k0 then grow h;
  let i = h.len in
  h.k0.(i) <- k0;
  h.k1.(i) <- k1;
  h.k2.(i) <- k2;
  h.v.(i) <- x;
  h.len <- h.len + 1;
  sift_up h i

let min_key h = if h.len = 0 then None else Some (h.k0.(0), h.k1.(0), h.k2.(0))
let min_k0 h = if h.len = 0 then None else Some h.k0.(0)

let pop_min h =
  if h.len = 0 then None
  else begin
    let k0 = h.k0.(0) and k1 = h.k1.(0) and k2 = h.k2.(0) and x = h.v.(0) in
    let last = h.len - 1 in
    h.len <- last;
    if last > 0 then begin
      h.k0.(0) <- h.k0.(last);
      h.k1.(0) <- h.k1.(last);
      h.k2.(0) <- h.k2.(last);
      h.v.(0) <- h.v.(last)
    end;
    h.v.(last) <- h.dummy;
    if last > 0 then sift_down h 0;
    Some (k0, k1, k2, x)
  end

let clear h =
  Array.fill h.v 0 h.len h.dummy;
  h.len <- 0
