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

(* A probability draw consumes exactly one Rng.int from the stream, so the
   draw sequence of a transmission is a fixed function of the stream alone. *)
let million = 1_000_000

let chance rng p =
  if p <= 0. then false
  else if p >= 1. then true
  else Rng.int rng million < int_of_float (p *. float_of_int million)

let flip_bit b i =
  let s = Bytes.of_string (Bits.to_string b) in
  Bytes.set s i (match Bytes.get s i with '0' -> '1' | _ -> '0');
  Bits.of_string (Bytes.to_string s)

type delivery = { at : int; payload : Bits.t; corrupted : bool }
type outcome = { deliveries : delivery list; was_dropped : bool; was_duplicated : bool }

(* The per-delivery stream: keyed by (run seed, link id, delivery index)
   through Rng.split_string, so the draw depends on neither event-queue
   order nor worker count (ANALYSIS.md, determinism contract). *)
let stream ~rng ~link ~ix = Rng.split_string rng (Printf.sprintf "%s#%d" link ix)

let transmit ~rng ~link ~ix ~now ~latency m payload =
  let s = stream ~rng ~link ~ix in
  if chance s m.drop then { deliveries = []; was_dropped = true; was_duplicated = false }
  else begin
    let dup = chance s m.duplicate in
    let copy () =
      let corrupted = chance s m.corrupt && Bits.length payload > 0 in
      let payload = if corrupted then flip_bit payload (Rng.int s (Bits.length payload)) else payload in
      let extra =
        if m.max_delay > 0 && chance s m.delay then 1 + Rng.int s m.max_delay else 0
      in
      { at = now + latency + extra; payload; corrupted }
    in
    let first = copy () in
    let deliveries = if dup then [ first; copy () ] else [ first ] in
    { deliveries; was_dropped = false; was_duplicated = dup }
  end

let crash_round ~rng ~node ~rounds m =
  if rounds <= 0 then None
  else
    let s = Rng.split_string rng (Printf.sprintf "crash#%d" node) in
    if chance s m.crash then Some (Rng.int s rounds) else None

let pp ppf m =
  Format.fprintf ppf
    "%s{drop=%.3f corrupt=%.3f dup=%.3f delay=%.3f(max %d) crash=%.3f}" m.name m.drop m.corrupt
    m.duplicate m.delay m.max_delay m.crash
