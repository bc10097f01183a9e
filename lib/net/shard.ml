(* The partitioned entry points of the one event engine (Net.execute_partitioned);
   this module only resolves the shard and worker defaults. *)

type run_stats = Net.run_stats = {
  shards : int;
  windows : int;
  events : int;
  cross_messages : int;
}

(* Written only by [default_shards], i.e. on the caller's own domain
   before any worker is spawned.  (* dipp-race: domain-local *) *)
let warned_invalid_shards = ref false

let default_shards () =
  match Sys.getenv_opt "DIPP_SHARDS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 1 -> min v 64
      | Some _ | None ->
          if not !warned_invalid_shards then begin
            warned_invalid_shards := true;
            Printf.eprintf "DIPP_SHARDS=%s is not a positive integer; using one shard\n%!" s
          end;
          1)
  | None -> 4

let execute_ex ?config ?mode ?shards ?jobs ?(partition_seed = 0) ~rng ~model proto =
  let shards = match shards with Some s -> s | None -> default_shards () in
  let jobs = match jobs with Some j -> j | None -> Domain.recommended_domain_count () in
  Net.execute_partitioned ?config ?mode ~shards ~jobs ~partition_seed ~rng ~model proto

let execute ?config ?mode ?shards ?jobs ?partition_seed ~rng ~model proto =
  fst (execute_ex ?config ?mode ?shards ?jobs ?partition_seed ~rng ~model proto)
