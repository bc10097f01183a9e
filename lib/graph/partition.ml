(* Seeded multi-source BFS region growing.  Everything below is plain
   FIFO + array scans in fixed orders — the partition is a pure function
   of (graph, blocks, seed), never of hash order or scheduling.  Blocks
   are claimed at dequeue time: a popped node whose target block already
   holds [cap] members is diverted to the currently smallest block
   (lowest id on ties), which keeps every block at or under the cap
   without starving any of them. *)

type t = {
  nblocks : int;
  block : int array;
  blocks : int array array;
  pos : int array;
  cut_edges : int;
}

let make ?(seed = 0) ~blocks g =
  if blocks < 1 then invalid_arg "Partition.make: blocks < 1";
  let n = Graph.n g in
  let k = min blocks (max 1 n) in
  let block = Array.make n (-1) in
  let size = Array.make k 0 in
  let cap = if n = 0 then 1 else (n + k - 1) / k in
  let smallest () =
    let best = ref 0 in
    for b = 1 to k - 1 do
      if size.(b) < size.(!best) then best := b
    done;
    !best
  in
  let queue = Queue.create () in
  if n > 0 then begin
    (* k distinct BFS roots from the seed-keyed stream; collisions walk
       forward to the next unused node (deterministic) *)
    let rng = Rng.create seed in
    let used = Array.make n false in
    for b = 0 to k - 1 do
      let v = ref (Rng.int rng n) in
      while used.(!v) do
        v := (!v + 1) mod n
      done;
      used.(!v) <- true;
      Queue.add (!v, b) queue
    done
  end;
  let drain () =
    while not (Queue.is_empty queue) do
      let v, b = Queue.pop queue in
      if block.(v) = -1 then begin
        let b = if size.(b) >= cap then smallest () else b in
        block.(v) <- b;
        size.(b) <- size.(b) + 1;
        Array.iter (fun w -> if block.(w) = -1 then Queue.add (w, b) queue) (Graph.neighbors g v)
      end
    done
  in
  drain ();
  (* disconnected leftovers: each unreached component grows into the
     smallest block at the time it is discovered *)
  for v = 0 to n - 1 do
    if block.(v) = -1 then begin
      Queue.add (v, smallest ()) queue;
      drain ()
    end
  done;
  let blocks_arr = Array.init k (fun b -> Array.make size.(b) 0) in
  let fill = Array.make k 0 in
  let pos = Array.make n 0 in
  for v = 0 to n - 1 do
    let b = block.(v) in
    blocks_arr.(b).(fill.(b)) <- v;
    pos.(v) <- fill.(b);
    fill.(b) <- fill.(b) + 1
  done;
  let cut = ref 0 in
  Graph.iter_edges (fun (u, v) -> if block.(u) <> block.(v) then incr cut) g;
  { nblocks = k; block; blocks = blocks_arr; pos; cut_edges = !cut }
