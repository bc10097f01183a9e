(** The seven honest protocol families of the reduction chain, in one
    table.

    In the DIP model each family is a yes-instance generator plus the
    honest prover.  A {!t} builds an {!instance} from [(n, gseed)], and
    the instance runs the honest protocol from a seed.  The serving path
    ({!Dipp_serve.Serve}), the trace corpus ({!Registry}), the pooled
    completeness specs and the fault-sweep transport families are all
    built from this table, and all of them memoise through {!honest}
    under one key scheme. *)

type run = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  frames : Trace.frame list;  (** non-empty iff the run retained them *)
}

type instance = {
  nodes : int;
  graph : unit -> Graph.t;
      (** the network; a thunk so that LR-sorting builds its underlying
          graph only when a caller needs it *)
  key : string;
      (** content address: SHA-256 over the family name, [n], [gseed] and
          the instance digest ({!Label_cache.lr_key} or
          {!Trace.graph_digest}) *)
  run : retain:bool -> seed:int -> run;  (** the honest protocol run *)
  decide : (Trace.frame list -> (Dip.verdict, string) Stdlib.result) option;
      (** decision-only replay of recorded frames, where the protocol has
          strict label decoders (LR-sorting) *)
}

type t = {
  name : string;  (** the serve name *)
  protocol : string;  (** the {!Bounds} row and the trace protocol id *)
  min_n : int;
  build : n:int -> gseed:int -> instance;  (** a pure function of [(n, gseed)] *)
}

val lr : t
val path_outerplanarity : t
val outerplanarity : t
val planar_embedding : t
val planarity : t
val series_parallel : t
val treewidth2 : t

val all : t list
(** The seven families in serve binary-id order; append only. *)

val find : string -> t option
(** Lookup by {!t.name}. *)

val honest : t -> instance -> seed:int -> Dip.verdict * Dip.stats
(** The instance's honest run, memoised by {!Label_cache} under
    [(name, key, seed)]. *)
