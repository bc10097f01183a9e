type model = {
  name : string;
  drop : float;
  corrupt : float;
  duplicate : float;
  delay : float;
  max_delay : int;
  crash : float;
}

let reliable =
  { name = "reliable"; drop = 0.; corrupt = 0.; duplicate = 0.; delay = 0.; max_delay = 0; crash = 0. }

let drop ~rate = { reliable with name = "drop"; drop = rate }
let corrupt ~rate = { reliable with name = "corrupt"; corrupt = rate }
let duplicate ~rate = { reliable with name = "duplicate"; duplicate = rate; max_delay = 4 }
let delay ?(max_delay = 96) ~rate () = { reliable with name = "delay"; delay = rate; max_delay }
let crash ~rate = { reliable with name = "crash"; crash = rate }

let chaos ~rate =
  {
    name = "chaos";
    drop = rate /. 2.;
    corrupt = rate /. 2.;
    duplicate = rate /. 2.;
    delay = rate;
    max_delay = 64;
    crash = rate /. 10.;
  }

let by_name name ~rate =
  if not (Float.is_finite rate && rate >= 0. && rate <= 1.) then
    Error (Printf.sprintf "fault rate %g is not a probability in [0, 1]" rate)
  else
    match name with
    | "reliable" -> Ok reliable
    | "drop" -> Ok (drop ~rate)
    | "corrupt" -> Ok (corrupt ~rate)
    | "duplicate" -> Ok (duplicate ~rate)
    | "delay" -> Ok (delay ~rate ())
    | "crash" -> Ok (crash ~rate)
    | "chaos" -> Ok (chaos ~rate)
    | _ -> Error (Printf.sprintf "unknown fault model %s" name)

(* The stream of one transmission or node: Rng.split_string root (key a b
   c), derived on the first draw, so a transmission or node that never
   draws (every rate 0 or 1) never formats its key.  The key is a pure
   function of (link, delivery index) or of the node, so the draws depend
   on neither event-queue order nor worker count (ANALYSIS.md,
   determinism contract).  [key] is a top-level function: making a
   stream allocates one record and no closure. *)
type stream = {
  root : Rng.t;
  key : int -> int -> int -> string;
  a : int;
  b : int;
  c : int;
  mutable derived : Rng.t option;
}

let link_key src dst ix = Printf.sprintf "%d>%d#%d" src dst ix
let crash_key node _ _ = Printf.sprintf "crash#%d" node

let draw st bound =
  let s =
    match st.derived with
    | Some s -> s
    | None ->
        let s = Rng.split_string st.root (st.key st.a st.b st.c) in
        st.derived <- Some s;
        s
  in
  Rng.int s bound

(* A probability draw consumes exactly one Rng.int from the stream, so the
   draw sequence of a transmission is a fixed function of the stream alone.
   A rate of 0 or 1 decides without a draw. *)
let million = 1_000_000

let chance st p =
  if p <= 0. then false
  else if p >= 1. then true
  else draw st million < int_of_float (p *. float_of_int million)

let flip_bit b i =
  let s = Bytes.of_string (Bits.to_string b) in
  Bytes.set s i (match Bytes.get s i with '0' -> '1' | _ -> '0');
  Bits.of_string (Bytes.to_string s)

type delivery = { at : int; payload : Bits.t; corrupted : bool }
type outcome = { deliveries : delivery list; was_dropped : bool; was_duplicated : bool }

let copy st ~now ~latency m payload =
  let corrupted = chance st m.corrupt && Bits.length payload > 0 in
  let payload = if corrupted then flip_bit payload (draw st (Bits.length payload)) else payload in
  let extra = if m.max_delay > 0 && chance st m.delay then 1 + draw st m.max_delay else 0 in
  { at = now + latency + extra; payload; corrupted }

let transmit ~rng ~src ~dst ~ix ~now ~latency m payload =
  let st = { root = rng; key = link_key; a = src; b = dst; c = ix; derived = None } in
  if chance st m.drop then { deliveries = []; was_dropped = true; was_duplicated = false }
  else begin
    let dup = chance st m.duplicate in
    let first = copy st ~now ~latency m payload in
    let deliveries = if dup then [ first; copy st ~now ~latency m payload ] else [ first ] in
    { deliveries; was_dropped = false; was_duplicated = dup }
  end

let crash_round ~rng ~node ~rounds m =
  if rounds <= 0 then None
  else
    let st = { root = rng; key = crash_key; a = node; b = 0; c = 0; derived = None } in
    if chance st m.crash then Some (draw st rounds) else None

let pp ppf m =
  Format.fprintf ppf
    "%s{drop=%.3f corrupt=%.3f dup=%.3f delay=%.3f(max %d) crash=%.3f}" m.name m.drop m.corrupt
    m.duplicate m.delay m.max_delay m.crash
