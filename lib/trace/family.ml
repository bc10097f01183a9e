(* The seven honest families of the reduction chain (LR-sorting ->
   path-outerplanarity -> {outerplanarity, embedded planarity ->
   planarity, series-parallel -> treewidth <= 2}), each a yes-instance
   generator plus the honest prover.  Every consumer that runs an honest
   instance builds it here and memoises it through [honest], so there is
   one adapter and one label-cache key scheme. *)

module Gen = Dipp_gen.Gen

type run = { verdict : Dip.verdict; stats : Dip.stats; frames : Trace.frame list }

type instance = {
  nodes : int;
  graph : unit -> Graph.t;
  key : string;
  run : retain:bool -> seed:int -> run;
  decide : (Trace.frame list -> (Dip.verdict, string) Stdlib.result) option;
}

type t = { name : string; protocol : string; min_n : int; build : n:int -> gseed:int -> instance }

let content_key ~name ~n ~gseed ~digest =
  Sha256.hex (String.concat "\x00" [ name; string_of_int n; string_of_int gseed; digest ])

(* Block-built families scale their block count with n, so n stays the
   one knob for instance size. *)
let blocks_of_n n = max 1 (n / 8)

let on_graph name ~n ~gseed g run =
  {
    nodes = Graph.n g;
    graph = (fun () -> g);
    key = content_key ~name ~n ~gseed ~digest:(Trace.graph_digest g);
    run;
    decide = None;
  }

let lr =
  {
    name = "lr";
    protocol = "lr_sorting";
    min_n = 4;
    build =
      (fun ~n ~gseed ->
        let path, arcs = Gen.lr_yes ~n gseed in
        let inst = { Lr_sorting.n; path; arcs } in
        {
          nodes = n;
          graph = (fun () -> Lr_sorting.underlying_graph inst);
          key = content_key ~name:"lr" ~n ~gseed ~digest:(Label_cache.lr_key inst);
          run =
            (fun ~retain ~seed ->
              let r = Lr_sorting.run ~seed ~retain ~prover:Lr_sorting.Honest inst in
              { verdict = r.Lr_sorting.verdict; stats = r.Lr_sorting.stats; frames = r.Lr_sorting.transcript });
          decide = Some (Lr_sorting.replay inst);
        });
  }

let path_outerplanarity =
  {
    name = "path_outerplanarity";
    protocol = "path_outerplanarity";
    min_n = 4;
    build =
      (fun ~n ~gseed ->
        let g, w = Gen.path_outerplanar ~n gseed in
        on_graph "path_outerplanarity" ~n ~gseed g (fun ~retain ~seed ->
            let module P = Path_outerplanarity in
            let r = P.run ~seed ~retain ~prover:P.Honest { P.graph = g; witness = Some w } in
            { verdict = r.P.verdict; stats = r.P.stats; frames = r.P.transcript }));
  }

let outerplanarity =
  {
    name = "outerplanarity";
    protocol = "outerplanarity";
    min_n = 8;
    build =
      (fun ~n ~gseed ->
        let g = Gen.outerplanar ~blocks:(blocks_of_n n) gseed in
        on_graph "outerplanarity" ~n ~gseed g (fun ~retain ~seed ->
            let module P = Outerplanarity in
            let r = P.run ~seed ~retain ~prover:P.Honest { P.graph = g } in
            { verdict = r.P.verdict; stats = r.P.stats; frames = r.P.transcript }));
  }

let planar_embedding =
  {
    name = "planar_embedding";
    protocol = "planar_embedding";
    min_n = 4;
    build =
      (fun ~n ~gseed ->
        let g = Gen.planar ~n gseed in
        let rot =
          match Gen.embedding g with
          | Some rot -> rot
          | None -> invalid_arg "Family: planar instance has no embedding"
        in
        on_graph "planar_embedding" ~n ~gseed g (fun ~retain ~seed ->
            let module P = Planar_embedding in
            let r = P.run ~seed ~retain ~prover:P.Honest { P.graph = g; rot } in
            { verdict = r.P.verdict; stats = r.P.stats; frames = r.P.transcript }));
  }

let planarity =
  {
    name = "planarity";
    protocol = "planarity";
    min_n = 4;
    build =
      (fun ~n ~gseed ->
        let g = Gen.planar ~n gseed in
        on_graph "planarity" ~n ~gseed g (fun ~retain ~seed ->
            let module P = Planarity in
            let r = P.run ~seed ~retain ~prover:P.Honest { P.graph = g } in
            { verdict = r.P.verdict; stats = r.P.stats; frames = r.P.transcript }));
  }

let series_parallel =
  {
    name = "series_parallel";
    protocol = "series_parallel_dip";
    min_n = 4;
    build =
      (fun ~n ~gseed ->
        let tr, g = Gen.series_parallel ~size:n gseed in
        let ears = Series_parallel.ears_of_sp tr in
        on_graph "series_parallel" ~n ~gseed g (fun ~retain ~seed ->
            let module P = Series_parallel_dip in
            let r = P.run ~seed ~retain ~prover:P.Honest { P.graph = g; ears = Some ears } in
            { verdict = r.P.verdict; stats = r.P.stats; frames = r.P.transcript }));
  }

let treewidth2 =
  {
    name = "treewidth2";
    protocol = "treewidth2_dip";
    min_n = 8;
    build =
      (fun ~n ~gseed ->
        let g = Gen.treewidth2 ~blocks:(blocks_of_n n) gseed in
        on_graph "treewidth2" ~n ~gseed g (fun ~retain ~seed ->
            let module P = Treewidth2_dip in
            let r = P.run ~seed ~retain ~prover:P.Honest { P.graph = g } in
            { verdict = r.P.verdict; stats = r.P.stats; frames = r.P.transcript }));
  }

(* List order fixes the serve binary-format family ids; append only. *)
let all =
  [ lr; path_outerplanarity; outerplanarity; planar_embedding; planarity; series_parallel; treewidth2 ]

let find name = List.find_opt (fun f -> String.equal f.name name) all

let honest fam inst ~seed =
  Label_cache.find_or_run
    ~key:(Label_cache.key ~protocol:fam.name ~instance:inst.key ~seed)
    (fun () ->
      let r = inst.run ~retain:false ~seed in
      (r.verdict, r.stats))
