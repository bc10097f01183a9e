type config = {
  latency : int;
  timeout : int;
  retries : int;
  phase_gap : int;
  deadline : int;
}

let default_config = { latency = 1; timeout = 4; retries = 3; phase_gap = 64; deadline = 60 }

type degradation = Strict | Degrade of { quorum : float }

type protocol = {
  name : string;
  graph : Graph.t;
  rounds : Bits.t array array;
  checksum : bool;
  node_check : int -> (int -> Bits.t array option) -> bool;
}

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  corrupted : int;
  duplicated : int;
  late : int;
  retransmits : int;
  acks : int;
}

type result = {
  accepted : bool;
  rejecting : int list;
  crashed_nodes : int list;
  heard : float;
  stats : stats;
}

type run_stats = { shards : int; windows : int; events : int; cross_messages : int }

(* ---- the event engine ------------------------------------------------- *)

(* A conservative-window engine over a partition of the nodes.  See
   net.mli for the determinism contract; the invariants the code below
   maintains are:

   1. Owner-locality: an event is processed on the block owning its
      owner node, and only touches state at that node's edge slots
      ([acked] and [link_ix] at the source, [got] and [link_ix] at the
      destination), which live in that block's arrays.
   2. Structural order: each tick's events are handled in the order of
      their keys (kind|round|src, dst|attempt|copy|corrupted) — computable
      from the event alone, so every owner sees its events in the same
      order under any partition.  The only equal-key pairs are Acks for
      the same (src, dst, round), whose effects commute (idempotent set +
      commutative counter).
   3. Lookahead: every scheduled successor lands at least
      min(latency, timeout) >= 1 ticks after its cause, so a window
      [T, T + W) with W = max 1 (min latency timeout) is closed under
      causality: nothing generated inside it belongs to it, and each of
      its ticks' buckets is complete when the window starts.

   Windows and decisions fan out over blocks with Pool.run.  Block
   records are only ever touched by the task whose index owns them, and
   everything a window exports travels through the pure result array. *)

(* An event is two ints.  k1 = kind|round|src with kind ranks Ack 0,
   Data 1, Send 2 — at one node and tick, settle acknowledgements first,
   then receipts, then (re)transmissions; k2 = dst|attempt|copy|corrupted.
   A Data event's payload travels beside it; the others carry
   [Bits.empty]. *)
let k1_of ~kind ~round ~src = (((kind lsl 8) lor round) lsl 30) lor src

let k2_of ~dst ~attempt ~copy ~corrupted =
  (dst lsl 6) lor (attempt lsl 2) lor (copy lsl 1) lor Bool.to_int corrupted

let kind_of k1 = k1 lsr 38
let round_of k1 = (k1 lsr 30) land 0xff
let src_of k1 = k1 land ((1 lsl 30) - 1)
let dst_of k2 = k2 lsr 6
let attempt_of k2 = (k2 lsr 2) land 0xf
let corrupted_of k2 = k2 land 1 = 1

(* One tick's events, in push order until [sort_bucket] puts them in key
   order. *)
type bucket = {
  mutable k1 : int array;
  mutable k2 : int array;
  mutable pl : Bits.t array;
  mutable len : int;
}

let bucket_push b k1 k2 pl =
  let cap = Array.length b.k1 in
  if b.len = cap then begin
    let grow a fill =
      let a' = Array.make (2 * cap) fill in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.k1 <- grow b.k1 0;
    b.k2 <- grow b.k2 0;
    b.pl <- grow b.pl Bits.empty
  end;
  b.k1.(b.len) <- k1;
  b.k2.(b.len) <- k2;
  b.pl.(b.len) <- pl;
  b.len <- b.len + 1

(* A bucket is a few ascending runs in push order: what the block pushed
   while handling each earlier tick, then each source block's merged
   arrivals, each already in key order.  [sort_bucket] merges adjacent
   runs pairwise until one is left — nothing to do in the common one-run
   case.  Ties are Acks with equal keys, which are identical events, so
   the result is the one key order. *)
let sort_bucket b =
  let n = b.len in
  let le k1 k2 i j = k1.(i) < k1.(j) || (k1.(i) = k1.(j) && k2.(i) <= k2.(j)) in
  (* run starts, ascending, then [n] *)
  let rec runs i acc =
    if i >= n then List.rev (n :: acc)
    else if le b.k1 b.k2 (i - 1) i then runs (i + 1) acc
    else runs (i + 1) (i :: acc)
  in
  match runs 1 [ 0 ] with
  | [ _; _ ] | [ _ ] | [] -> ()
  | starts ->
      let merge (s1, s2, sp) (d1, d2, dp) lo mid hi =
        let i = ref lo and j = ref mid in
        for k = lo to hi - 1 do
          let from =
            if !j >= hi || (!i < mid && le s1 s2 !i !j) then begin
              incr i;
              !i - 1
            end
            else begin
              incr j;
              !j - 1
            end
          in
          d1.(k) <- s1.(from);
          d2.(k) <- s2.(from);
          dp.(k) <- sp.(from)
        done
      in
      (* one pass merges runs 1+2, 3+4, ... from [src] into [dst] *)
      let rec pass src dst = function
        | lo :: mid :: (hi :: _ as rest) ->
            merge src dst lo mid hi;
            lo :: pass src dst rest
        | [ lo; hi ] ->
            merge src dst lo hi hi;
            [ lo; hi ]
        | short -> short
      in
      let rec until_one src dst = function
        | ([ _; _ ] | [ _ ] | []) -> src
        | starts -> until_one dst src (pass src dst starts)
      in
      let k1, k2, pl =
        until_one (b.k1, b.k2, b.pl)
          (Array.make n 0, Array.make n 0, Array.make n Bits.empty)
          starts
      in
      if k1 != b.k1 then begin
        Array.blit k1 0 b.k1 0 n;
        Array.blit k2 0 b.k2 0 n;
        Array.blit pl 0 b.pl 0 n
      end

module Calendar = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t land max_int
end)

type block_state = {
  ticks : unit Min_heap.t;  (* the ticks that have a bucket, each once *)
  cal : bucket Calendar.t;  (* tick -> its events *)
  mutable spare : bucket list;  (* drained buckets, reused *)
  link_ix : int array;  (* edge slot (u -> v) -> next delivery ix, origin-owned *)
  acked : Bytes.t;  (* slot (src -> dst) * rounds + round, source-owned *)
  got : Bits.t option array;  (* slot (dst -> src) * rounds + round, destination-owned *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable late : int;
  mutable retransmits : int;
  mutable acks : int;
  mutable events : int;
}

let schedule sh ~at k1 k2 pl =
  let b =
    match Calendar.find sh.cal at with
    | b -> b
    | exception Not_found ->
        let b =
          match sh.spare with
          | b :: rest ->
              sh.spare <- rest;
              b
          | [] ->
              { k1 = Array.make 64 0; k2 = Array.make 64 0; pl = Array.make 64 Bits.empty; len = 0 }
        in
        Calendar.replace sh.cal at b;
        Min_heap.push sh.ticks ~k0:at ~k1:0 ~k2:0 ();
        b
  in
  bucket_push b k1 k2 pl

let execute_partitioned ?(config = default_config) ?(mode = Strict) ~shards ~jobs ~partition_seed
    ~rng ~model proto =
  let cfg = config in
  if cfg.latency < 1 || cfg.timeout < 1 then
    invalid_arg "Net.execute: latency and timeout must be >= 1 (the window lookahead)";
  if cfg.retries < 0 || cfg.retries > 14 then
    invalid_arg "Net.execute: retries must be in [0, 14] (event-key packing)";
  let g = proto.graph in
  let n = Graph.n g in
  if n >= 1 lsl 27 then invalid_arg "Net.execute: n >= 2^27 (event-key packing)";
  let nrounds = Array.length proto.rounds in
  if nrounds > 255 then invalid_arg "Net.execute: more than 255 rounds";
  let nshards = if shards < 1 then 1 else if shards > 64 then 64 else shards in
  let part = Partition.make ~seed:partition_seed ~blocks:nshards g in
  let nsh = part.Partition.nblocks in
  let round_start r = r * cfg.phase_gap in
  let lookahead = max 1 (min cfg.latency cfg.timeout) in
  (* Each block's members own a contiguous run of edge slots, one per
     incident directed edge in CSR order: slot (u, v) is u's block-local
     index for the link u -> v. *)
  let slot_base = Array.make (max 1 n) 0 in
  let nslots =
    Array.map
      (fun members ->
        Array.fold_left
          (fun base v ->
            slot_base.(v) <- base;
            base + Graph.degree g v)
          0 members)
      part.Partition.blocks
  in
  let slot u v = slot_base.(u) + Graph.neighbor_slot g u v in
  let crash_at = Array.make (max 1 n) max_int in
  for v = 0 to n - 1 do
    match Fault.crash_round ~rng ~node:v ~rounds:nrounds model with
    | Some r -> crash_at.(v) <- round_start r
    | None -> ()
  done;
  let blocks =
    Array.map
      (fun slots ->
        {
          ticks = Min_heap.create ~dummy:() ();
          cal = Calendar.create 64;
          spare = [];
          link_ix = Array.make slots 0;
          acked = Bytes.make (slots * nrounds) '\000';
          got = Array.make (slots * nrounds) None;
          sent = 0;
          delivered = 0;
          dropped = 0;
          corrupted = 0;
          duplicated = 0;
          late = 0;
          retransmits = 0;
          acks = 0;
          events = 0;
        })
      nslots
  in
  (* initial sends: round r's labels leave at the round start, one message
     per directed edge, enqueued at the source's block *)
  for r = 0 to nrounds - 1 do
    for v = 0 to n - 1 do
      let sh = blocks.(part.Partition.block.(v)) in
      Array.iter
        (fun u ->
          schedule sh ~at:(round_start r)
            (k1_of ~kind:2 ~round:r ~src:v)
            (k2_of ~dst:u ~attempt:0 ~copy:0 ~corrupted:false)
            Bits.empty)
        (Graph.neighbors g v)
    done
  done;
  (* A handled event mutates only its own block's record [sh] (block
     [s]); arrivals owned by another block go to [out], a pure
     per-destination-block list array that the window task returns.  Both
     travel as parameters, never as captured variables, so each window
     task visibly touches only its own block. *)
  let emit sh out s ~at k1 k2 ~owner pl =
    let t = part.Partition.block.(owner) in
    if t = s then schedule sh ~at k1 k2 pl else out.(t) <- (at, k1, k2, pl) :: out.(t)
  in
  (* the copies of one transmission, numbered from [copy] *)
  let rec deliver sh out s ~k1 ~dst ~attempt ~owner copy = function
    | [] -> ()
    | d :: rest ->
        if d.Fault.corrupted then sh.corrupted <- sh.corrupted + 1;
        emit sh out s ~at:d.Fault.at k1
          (k2_of ~dst ~attempt ~copy ~corrupted:d.Fault.corrupted)
          ~owner d.Fault.payload;
        deliver sh out s ~k1 ~dst ~attempt ~owner (copy + 1) rest
  in
  (* One transmission of a Data or Ack frame on the link [from -> owner],
     [sl] being that link's edge slot at [from]; its copies are keyed by
     the message's [k1], [dst] and [attempt]. *)
  let transmit sh out s ~now ~sl ~k1 ~dst ~attempt ~from ~owner payload =
    let ix = sh.link_ix.(sl) in
    sh.link_ix.(sl) <- ix + 1;
    let o = Fault.transmit ~rng ~src:from ~dst:owner ~ix ~now ~latency:cfg.latency model payload in
    if o.Fault.was_dropped then sh.dropped <- sh.dropped + 1;
    if o.Fault.was_duplicated then sh.duplicated <- sh.duplicated + 1;
    deliver sh out s ~k1 ~dst ~attempt ~owner 0 o.Fault.deliveries
  in
  let handle sh out s now k1 k2 payload =
    let src = src_of k1 and round = round_of k1 and dst = dst_of k2 in
    match kind_of k1 with
    | 2 (* Send, at src *) ->
        let sl = slot src dst in
        if now < crash_at.(src) && Bytes.get sh.acked ((sl * nrounds) + round) = '\000' then begin
          let attempt = attempt_of k2 in
          if attempt > 0 then sh.retransmits <- sh.retransmits + 1;
          sh.sent <- sh.sent + 1;
          if attempt < cfg.retries then
            emit sh out s
              ~at:(now + (cfg.timeout * (1 lsl attempt)))
              k1
              (k2_of ~dst ~attempt:(attempt + 1) ~copy:0 ~corrupted:false)
              ~owner:src Bits.empty;
          transmit sh out s ~now ~sl ~k1:(k1_of ~kind:1 ~round ~src) ~dst ~attempt ~from:src
            ~owner:dst proto.rounds.(round).(src)
        end
    | 1 (* Data, at dst *) ->
        sh.delivered <- sh.delivered + 1;
        if now < crash_at.(dst) then
          if proto.checksum && corrupted_of k2 then
            (* the frame check detects the flip: discard silently, so the
               sender's retransmission chain covers it like a drop *)
            ()
          else begin
            let sl = slot dst src in
            let i = (sl * nrounds) + round in
            if now > round_start round + cfg.deadline then sh.late <- sh.late + 1
            else if Option.is_none sh.got.(i) then sh.got.(i) <- Some payload;
            (* always acknowledge a structurally valid frame, even a late
               or duplicate one, to quiet the sender *)
            sh.acks <- sh.acks + 1;
            transmit sh out s ~now ~sl ~k1:(k1_of ~kind:0 ~round ~src) ~dst ~attempt:0 ~from:dst
              ~owner:src Bits.empty
          end
    | _ (* Ack, at src *) ->
        sh.delivered <- sh.delivered + 1;
        Bytes.set sh.acked ((slot src dst * nrounds) + round) '\001'
  in
  (* One window on block [s]: handle every event before [limit], tick by
     tick, each tick's bucket in key order. *)
  let process_window s limit =
    let sh = blocks.(s) in
    let out = Array.make nsh [] in
    while match Min_heap.min_k0 sh.ticks with Some t -> t < limit | None -> false do
      match Min_heap.pop_min sh.ticks with
      | Some (t, _, _, ()) ->
          let b = Calendar.find sh.cal t in
          Calendar.remove sh.cal t;
          sort_bucket b;
          for i = 0 to b.len - 1 do
            handle sh out s t b.k1.(i) b.k2.(i) b.pl.(i)
          done;
          sh.events <- sh.events + b.len;
          Array.fill b.pl 0 b.len Bits.empty;
          b.len <- 0;
          sh.spare <- b :: sh.spare
      | None -> ()
    done;
    out
  in
  let windows = ref 0 in
  let cross = ref 0 in
  let next_time () =
    let t = ref max_int in
    Array.iter
      (fun sh -> match Min_heap.min_k0 sh.ticks with Some x -> if x < !t then t := x | None -> ())
      blocks;
    if !t = max_int then None else Some !t
  in
  let rec window_loop () =
    match next_time () with
    | None -> ()
    | Some t ->
        incr windows;
        let limit = t + lookahead in
        let outs = Pool.run ~jobs nsh (fun s -> process_window s limit) in
        (* merge in (source block, destination block) order, each list in
           its push order; the per-tick sort makes any merge order
           equivalent (unique keys or commuting Acks) *)
        Array.iter
          (fun out ->
            for tdst = 0 to nsh - 1 do
              List.iter
                (fun (at, k1, k2, pl) ->
                  incr cross;
                  schedule blocks.(tdst) ~at k1 k2 pl)
                (List.rev out.(tdst))
            done)
          outs;
        window_loop ()
  in
  window_loop ();
  (* ---- decisions: per block in parallel, merged in node order ---- *)
  let decide s =
    let sh = blocks.(s) in
    let members = part.Partition.blocks.(s) in
    let len = Array.length members in
    let status = Array.make len 0 in
    (* 0 ok / 1 rejecting / 2 crashed *)
    let frac = Array.make len 0. in
    (* the round-[r] frame at a member's receive slot [sl]: the deciding
       node's own store, local by construction but opaque to the analyzer
       behind the slot arithmetic *)
    let received sl r =
      sh.got.((sl * nrounds) + r) (* dipp-lint: allow flow-locality *)
    in
    let heard sl =
      let rec from r = r >= nrounds || (Option.is_some (received sl r) && from (r + 1)) in
      from 0
    in
    Array.iteri
      (fun i v ->
        if crash_at.(v) < max_int then status.(i) <- 2
        else begin
          let base = slot_base.(v) in
          let deg = Graph.degree g v in
          let visible = ref 0 in
          for j = 0 to deg - 1 do
            if heard (base + j) then incr visible
          done;
          let visible = !visible in
          frac.(i) <- (if deg = 0 then 1. else float_of_int visible /. float_of_int deg);
          let fetch u =
            match Graph.neighbor_slot g v u with
            | -1 -> None
            | j ->
                let sl = base + j in
                if heard sl then
                  Some
                    (Array.init nrounds (fun r ->
                         match received sl r with Some b -> b | None -> Bits.empty))
                else None
          in
          let ok =
            match mode with
            | Strict -> visible = deg && proto.node_check v fetch
            | Degrade { quorum } ->
                (deg = 0 || float_of_int visible >= quorum *. float_of_int deg)
                && proto.node_check v fetch
          in
          if not ok then status.(i) <- 1
        end)
      members;
    (status, frac)
  in
  let decisions = Pool.run ~jobs nsh decide in
  let crashed_nodes = ref [] in
  let rejecting = ref [] in
  let heard_sum = ref 0. in
  let live = ref 0 in
  for v = n - 1 downto 0 do
    let status, frac = decisions.(part.Partition.block.(v)) in
    let i = part.Partition.pos.(v) in
    match status.(i) with
    | 2 -> crashed_nodes := v :: !crashed_nodes
    | s ->
        incr live;
        heard_sum := !heard_sum +. frac.(i);
        if s = 1 then rejecting := v :: !rejecting
  done;
  let crashed_nodes = !crashed_nodes and rejecting = !rejecting in
  let accepted =
    n = 0 || (!live > 0 && (match rejecting with [] -> true | _ :: _ -> false))
  in
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 blocks in
  ( {
      accepted;
      rejecting;
      crashed_nodes;
      heard = (if !live = 0 then 0. else !heard_sum /. float_of_int !live);
      stats =
        {
          sent = sum (fun sh -> sh.sent);
          delivered = sum (fun sh -> sh.delivered);
          dropped = sum (fun sh -> sh.dropped);
          corrupted = sum (fun sh -> sh.corrupted);
          duplicated = sum (fun sh -> sh.duplicated);
          late = sum (fun sh -> sh.late);
          retransmits = sum (fun sh -> sh.retransmits);
          acks = sum (fun sh -> sh.acks);
        };
    },
    { shards = nsh; windows = !windows; events = sum (fun sh -> sh.events); cross_messages = !cross }
  )

let execute ?config ?mode ~rng ~model proto =
  fst (execute_partitioned ?config ?mode ~shards:1 ~jobs:1 ~partition_seed:0 ~rng ~model proto)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "sent=%d delivered=%d dropped=%d corrupted=%d duplicated=%d late=%d retransmits=%d acks=%d"
    s.sent s.delivered s.dropped s.corrupted s.duplicated s.late s.retransmits s.acks

(* Decision-only replay: skip the event engine entirely and hand every
   node's check the recorded per-round payloads, as if a fault-free
   network had delivered them.  [frames.(r).(u)] is node u's round-r
   label; with frames = the protocol's own [rounds], this reduces to the
   reliable-network verdict. *)
let replay_check proto ~frames =
  let n = Graph.n proto.graph in
  Dip.all_accept ~n (fun v ->
      proto.node_check v (fun u -> Some (Array.map (fun round -> round.(u)) frames)))
