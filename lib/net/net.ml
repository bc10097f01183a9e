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
      owner node, and only touches state keyed by that node ([acked] at
      the source, [got] at the destination, [link_ix] at a link's origin).
   2. Structural order: heaps are keyed (time, (kind|round|src), (dst|
      attempt|copy)) — computable from the event alone, so every owner
      sees its events in the same order under any partition.  The only
      equal-key pairs are Acks for the same (src, dst, round), whose
      effects commute (idempotent replace + commutative counter).
   3. Lookahead: every scheduled successor lands at least
      min(latency, timeout) >= 1 ticks after its cause, so a window
      [T, T + W) with W = max 1 (min latency timeout) is closed under
      causality: nothing generated inside it belongs to it.

   Windows and decisions fan out over blocks with Pool.run.  Block
   records are only ever touched by the task whose index owns them, and
   everything a window exports travels through the pure result array. *)

type event =
  | Send of { src : int; dst : int; round : int; attempt : int }
  | Data of { src : int; dst : int; round : int; payload : Bits.t; corrupted : bool }
  | Ack of { src : int; dst : int; round : int }

(* kind ranks: Ack 0, Data 1, Send 2 — at one node and tick, settle
   acknowledgements first, then receipts, then (re)transmissions *)
let k1_of ~kind ~round ~src = (((kind lsl 8) lor round) lsl 30) lor src
let k2_of ~dst ~attempt ~copy = (dst lsl 5) lor (attempt lsl 1) lor copy

type block_state = {
  heap : event Min_heap.t;
  link_ix : (int, int) Hashtbl.t;  (* origin-owned directed link -> next delivery ix *)
  acked : (int, unit) Hashtbl.t;  (* (src, dst, round), source-owned *)
  got : (int, Bits.t) Hashtbl.t;  (* (dst, src, round), destination-owned *)
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

let link_id u v = Printf.sprintf "%d>%d" u v

let execute_partitioned ?(config = default_config) ?(mode = Strict) ~shards ~jobs ~partition_seed
    ~rng ~model proto =
  let cfg = config in
  if cfg.latency < 1 || cfg.timeout < 1 then
    invalid_arg "Net.execute: latency and timeout must be >= 1 (the window lookahead)";
  if cfg.retries < 0 || cfg.retries > 14 then
    invalid_arg "Net.execute: retries must be in [0, 14] (structural-key packing)";
  let g = proto.graph in
  let n = Graph.n g in
  if n >= 1 lsl 27 then invalid_arg "Net.execute: n >= 2^27 (structural-key packing)";
  let nrounds = Array.length proto.rounds in
  if nrounds > 255 then invalid_arg "Net.execute: more than 255 rounds";
  let nshards = if shards < 1 then 1 else if shards > 64 then 64 else shards in
  let part = Partition.make ~seed:partition_seed ~blocks:nshards g in
  let nsh = part.Partition.nblocks in
  let round_start r = r * cfg.phase_gap in
  let lookahead = max 1 (min cfg.latency cfg.timeout) in
  (* (a, b, r) packed; n < 2^27 and r < 256 keep this well inside 62 bits *)
  let key3 a b r = (((a * n) + b) * 256) + r in
  let crash_at = Array.make (max 1 n) max_int in
  for v = 0 to n - 1 do
    match Fault.crash_round ~rng ~node:v ~rounds:nrounds model with
    | Some r -> crash_at.(v) <- round_start r
    | None -> ()
  done;
  let blocks =
    Array.init nsh (fun _ ->
        {
          heap = Min_heap.create ~capacity:256 ~dummy:(Ack { src = 0; dst = 0; round = 0 }) ();
          link_ix = Hashtbl.create 64;
          acked = Hashtbl.create 64;
          got = Hashtbl.create 64;
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
  in
  (* initial sends: round r's labels leave at the round start, one message
     per directed edge, enqueued at the source's block *)
  for r = 0 to nrounds - 1 do
    for v = 0 to n - 1 do
      let h = blocks.(part.Partition.block.(v)).heap in
      Array.iter
        (fun u ->
          Min_heap.push h ~k0:(round_start r)
            ~k1:(k1_of ~kind:2 ~round:r ~src:v)
            ~k2:(k2_of ~dst:u ~attempt:0 ~copy:0)
            (Send { src = v; dst = u; round = r; attempt = 0 }))
        (Graph.neighbors g v)
    done
  done;
  (* A handled event mutates only its own block's record [sh] (block
     [s]); arrivals owned by another block go to [out], a pure
     per-destination-block list array that the window task returns.  Both
     travel as parameters, never as captured variables, so each window
     task visibly touches only its own block. *)
  let emit sh out s ~at ~key1 ~key2 ~owner e =
    let t = part.Partition.block.(owner) in
    if t = s then Min_heap.push sh.heap ~k0:at ~k1:key1 ~k2:key2 e
    else out.(t) <- (at, key1, key2, e) :: out.(t)
  in
  let transmit sh out s ~now ~kind ~round ~ksrc ~kdst ~kattempt ~owner u v payload mk =
    let lk = (u * n) + v in
    let ix = match Hashtbl.find_opt sh.link_ix lk with Some i -> i | None -> 0 in
    Hashtbl.replace sh.link_ix lk (ix + 1);
    let o = Fault.transmit ~rng ~link:(link_id u v) ~ix ~now ~latency:cfg.latency model payload in
    if o.Fault.was_dropped then sh.dropped <- sh.dropped + 1;
    if o.Fault.was_duplicated then sh.duplicated <- sh.duplicated + 1;
    List.iteri
      (fun copy d ->
        if d.Fault.corrupted then sh.corrupted <- sh.corrupted + 1;
        emit sh out s ~at:d.Fault.at
          ~key1:(k1_of ~kind ~round ~src:ksrc)
          ~key2:(k2_of ~dst:kdst ~attempt:kattempt ~copy)
          ~owner
          (mk d.Fault.payload d.Fault.corrupted))
      o.Fault.deliveries
  in
  let handle sh out s now ev =
    match ev with
    | Send { src; dst; round; attempt } ->
        if now < crash_at.(src) && not (Hashtbl.mem sh.acked (key3 src dst round)) then begin
          if attempt > 0 then sh.retransmits <- sh.retransmits + 1;
          sh.sent <- sh.sent + 1;
          if attempt < cfg.retries then
            emit sh out s
              ~at:(now + (cfg.timeout * (1 lsl attempt)))
              ~key1:(k1_of ~kind:2 ~round ~src)
              ~key2:(k2_of ~dst ~attempt:(attempt + 1) ~copy:0)
              ~owner:src
              (Send { src; dst; round; attempt = attempt + 1 });
          transmit sh out s ~now ~kind:1 ~round ~ksrc:src ~kdst:dst ~kattempt:attempt ~owner:dst
            src dst proto.rounds.(round).(src) (fun payload corrupted ->
              Data { src; dst; round; payload; corrupted })
        end
    | Data { src; dst; round; payload; corrupted } ->
        sh.delivered <- sh.delivered + 1;
        if now < crash_at.(dst) then
          if proto.checksum && corrupted then
            (* the frame check detects the flip: discard silently, so the
               sender's retransmission chain covers it like a drop *)
            ()
          else begin
            if now > round_start round + cfg.deadline then sh.late <- sh.late + 1
            else if not (Hashtbl.mem sh.got (key3 dst src round)) then
              Hashtbl.replace sh.got (key3 dst src round) payload;
            (* always acknowledge a structurally valid frame, even a late
               or duplicate one, to quiet the sender *)
            sh.acks <- sh.acks + 1;
            transmit sh out s ~now ~kind:0 ~round ~ksrc:src ~kdst:dst ~kattempt:0 ~owner:src dst
              src Bits.empty (fun _ _ -> Ack { src; dst; round })
          end
    | Ack { src; dst; round } ->
        sh.delivered <- sh.delivered + 1;
        Hashtbl.replace sh.acked (key3 src dst round) ()
  in
  (* One window on block [s]: handle every event before [limit]. *)
  let process_window s limit =
    let sh = blocks.(s) in
    let out = Array.make nsh [] in
    while match Min_heap.min_k0 sh.heap with Some t -> t < limit | None -> false do
      match Min_heap.pop_min sh.heap with
      | Some (at, _, _, e) ->
          sh.events <- sh.events + 1;
          handle sh out s at e
      | None -> ()
    done;
    out
  in
  let windows = ref 0 in
  let cross = ref 0 in
  let next_time () =
    let t = ref max_int in
    Array.iter
      (fun sh -> match Min_heap.min_k0 sh.heap with Some x -> if x < !t then t := x | None -> ())
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
        (* merge in (source block, destination block) order; the heap keys
           make any merge order equivalent (unique keys or commuting Acks) *)
        Array.iter
          (fun out ->
            for tdst = 0 to nsh - 1 do
              List.iter
                (fun (at, key1, key2, e) ->
                  incr cross;
                  Min_heap.push blocks.(tdst).heap ~k0:at ~k1:key1 ~k2:key2 e)
                out.(tdst)
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
    Array.iteri
      (fun i v ->
        if crash_at.(v) < max_int then status.(i) <- 2
        else begin
          let ns = Graph.neighbors g v in
          let deg = Array.length ns in
          let view_of u =
            let rec collect r acc =
              if r < 0 then Some (Array.of_list acc)
              else
                (* the packed key addresses v's own receive store at the
                   bound neighbor u — local by construction, just opaque
                   to the analyzer behind the key3 arithmetic *)
                match
                  Hashtbl.find_opt sh.got (key3 v u r) (* dipp-lint: allow locality-index flow-locality *)
                with
                | Some b -> collect (r - 1) (b :: acc)
                | None -> None
            in
            collect (nrounds - 1) []
          in
          let views = Array.map (fun u -> (u, view_of u)) ns in
          let visible =
            Array.fold_left
              (fun acc (_, w) -> match w with Some _ -> acc + 1 | None -> acc)
              0 views
          in
          frac.(i) <- (if deg = 0 then 1. else float_of_int visible /. float_of_int deg);
          let fetch u =
            let found = ref None in
            Array.iter (fun (u', w) -> if u' = u then found := w) views;
            !found
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
