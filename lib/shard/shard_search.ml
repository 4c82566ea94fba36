(* Per-entry worker record: everything the coordinator needs to replay
   the sequential per-level semantics without re-expanding. [e_cands]
   holds the unpruned children in the order the in-process search
   stages them. *)
type 'm entry_result = {
  e_found : 'm list option;  (* reversed move prefix of a sorted child *)
  e_cands : (State.t * 'm list) list;
  e_pruned : int;
  e_redundant : int;
  e_nlive : int;
}

type 'm unit_payload = {
  u_level : int;
  u_entries : (State.t * 'm list) list;
}

let kind = "snlb-shard-search"

let c_nodes = Metrics.counter "search.nodes"
let c_pruned = Metrics.counter "search.pruned"
let c_deduped = Metrics.counter "search.deduped"
let c_subsumed = Metrics.counter "search.subsumed"
let c_levels = Metrics.counter "search.levels"
let c_redundant = Metrics.counter "analysis.redundant_moves"
let c_shard_levels = Metrics.counter "shard.search.levels"

(* Mirrors the in-process expansion of one frontier entry, minus the
   global node/stop bookkeeping (replayed by the coordinator's merge):
   the parent is committed to the worker's [arena], each live move is
   staged there, and the unpruned children come back unpacked — the
   worker never commits them. On a sorted child the iteration stops
   like the in-process loop does (later moves of this entry are never
   staged). *)
let expand_entry sys arena ~lvl ~last ~remaining ~moves (st, pre) =
  let is_red = sys.Driver.redundant_of ~level:lvl st in
  let redundant = ref 0 in
  let live =
    List.filter
      (fun m ->
        if is_red m then begin
          incr redundant;
          false
        end
        else true)
      moves
  in
  let nlive = List.length live in
  Arena.stage_state arena st;
  let parent = match Arena.commit arena ~level:0 with `Fresh i | `Dup i -> i in
  let found = ref None in
  let cands = ref [] in
  let pruned = ref 0 in
  (try
     List.iter
       (fun m ->
         sys.Driver.stage arena ~parent m;
         if Arena.staged_is_sorted arena then begin
           found := Some (m :: pre);
           raise Exit
         end
         else if not last then begin
           let st' = Arena.staged_state arena in
           if sys.Driver.prune ~level:lvl ~remaining st' then incr pruned
           else cands := (st', m :: pre) :: !cands
         end)
       live
   with Exit -> ());
  {
    e_found = !found;
    e_cands = List.rev !cands;
    e_pruned = !pruned;
    e_redundant = !redundant;
    e_nlive = nlive;
  }

(* Contiguous, order-preserving slices: the first [len mod k] slices
   get one extra entry. *)
let slice k entries =
  let arr = Array.of_list entries in
  let len = Array.length arr in
  let k = max 1 (min k len) in
  let base = len / k and extra = len mod k in
  List.init k (fun i ->
      let start = (i * base) + min i extra in
      let count = base + if i < extra then 1 else 0 in
      Array.to_list (Array.sub arr start count))

let run ?(sink = Sink.null) ?cancel ?(budget = Driver.default_budget) ?config
    ~shards ~dir ~max_depth sys =
  if shards < 1 then invalid_arg "Shard_search.run: shards < 1";
  let config =
    { (Option.value config ~default:(Shard.default_config ~dir)) with
      Shard.workers = shards;
      dir }
  in
  let w0 = Clock.wall () in
  let cpu0 = Clock.cpu () in
  let nodes = ref 0 in
  let pruned_total = ref 0 in
  let deduped_total = ref 0 in
  let subsumed_total = ref 0 in
  let redundant_total = ref 0 in
  let sizes = ref [] in
  let mk_stats completed =
    let fs = List.rev !sizes in
    {
      Driver.nodes = !nodes;
      pruned = !pruned_total;
      deduped = !deduped_total;
      subsumed = !subsumed_total;
      redundant = !redundant_total;
      frontier_sizes = fs;
      peak_frontier = List.fold_left max 0 fs;
      completed_levels = completed;
      elapsed = Clock.wall () -. w0;
      elapsed_cpu = Clock.cpu () -. cpu0;
    }
  in
  let record_totals s =
    Metrics.add c_nodes s.Driver.nodes;
    Metrics.add c_pruned s.Driver.pruned;
    Metrics.add c_deduped s.Driver.deduped;
    Metrics.add c_subsumed s.Driver.subsumed;
    Metrics.add c_redundant s.Driver.redundant;
    Metrics.add c_levels s.Driver.completed_levels
  in
  let cancelled () =
    match cancel with Some c -> Cancel.cancelled c | None -> false
  in
  let worker ~id:_ ~payload =
    let u : 'm unit_payload = Marshal.from_string payload 0 in
    let lvl = u.u_level in
    let moves = sys.Driver.moves_at ~level:lvl in
    let remaining = max_depth - lvl in
    let last = lvl = max_depth in
    let arena = Arena.create ~with_sigs:false ~n:sys.Driver.n () in
    (* Stop the slice at the first sorted child, like the in-process
       scan: the merge discards everything after a witness anyway. *)
    let out = ref [] in
    (try
       List.iter
         (fun entry ->
           let r = expand_entry sys arena ~lvl ~last ~remaining ~moves entry in
           out := r :: !out;
           if r.e_found <> None then raise Exit)
         u.u_entries
     with Exit -> ());
    Marshal.to_string (List.rev !out : 'm entry_result list) []
  in
  (* The coordinator's dedup memory: every state committed so far, in
     the order the in-process search commits them, and the kept
     representatives over it. Filtering stays on this domain: the
     coordinator forks workers at every level, and OCaml 5 forbids
     [Unix.fork] once a domain has been spawned. *)
  let arena =
    Arena.create ~with_sigs:(sys.Driver.dedup = Driver.Subsume) ~n:sys.Driver.n ()
  in
  let kept = Driver.kept ~domains:1 arena in
  let commit st ~level =
    Arena.stage_state arena st;
    Arena.commit arena ~level
  in
  let frontier =
    match commit sys.Driver.initial ~level:0 with
    | `Fresh i | `Dup i -> ref [ (i, []) ]
  in
  let result = ref None in
  let error = ref None in
  let level = ref 1 in
  Span.run ~sink ~name:"shard-search" @@ fun search_sp ->
  if State.is_sorted sys.Driver.initial then
    result := Some (Driver.Sorted { depth = 0; moves = []; stats = mk_stats 0 });
  while !result = None && !error = None && !level <= max_depth && !frontier <> [] do
    let lvl = !level in
    let timed_out =
      match budget.Driver.max_seconds with
      | Some s -> Clock.wall () -. w0 > s
      | None -> false
    in
    if timed_out then result := Some (Driver.Inconclusive (mk_stats (lvl - 1)))
    else if cancelled () then
      result := Some (Driver.Interrupted (mk_stats (lvl - 1)))
    else begin
      Metrics.incr c_shard_levels;
      Span.run ~sink ~name:"level" @@ fun sp ->
      let slices =
        slice shards
          (List.map (fun (idx, pre) -> (Arena.to_state arena idx, pre)) !frontier)
      in
      let units =
        List.mapi
          (fun i entries ->
            ( Printf.sprintf "l%d-s%d" lvl i,
              Marshal.to_string { u_level = lvl; u_entries = entries } [] ))
          slices
      in
      match Shard.run ~sink ?cancel config ~kind ~units ~worker with
      | Shard.Cancelled ->
          result := Some (Driver.Interrupted (mk_stats (lvl - 1)))
      | Shard.Quarantined ids ->
          error :=
            Some
              (Printf.sprintf
                 "shard search: level %d slices quarantined after %d attempts: %s"
                 lvl config.Shard.max_attempts (String.concat ", " ids))
      | Shard.Completed results ->
          (* Replay the sequential per-level semantics over the
             per-entry records in global entry order: this is where
             budget, witness-stops, dedup and subsumption make exactly
             the decisions the in-process search makes. *)
          let entry_results =
            List.concat_map
              (fun (_, payload) ->
                (Marshal.from_string payload 0 : 'm entry_result list))
              results
          in
          let stop = ref false in
          let over_budget = ref false in
          let found = ref None in
          let cands_rev = ref [] in
          List.iter
            (fun r ->
              if not !stop then begin
                let before = !nodes in
                nodes := before + r.e_nlive;
                if before + r.e_nlive > budget.Driver.max_nodes then begin
                  over_budget := true;
                  stop := true
                end
                else begin
                  pruned_total := !pruned_total + r.e_pruned;
                  redundant_total := !redundant_total + r.e_redundant;
                  match r.e_found with
                  | Some rev_moves ->
                      found := Some rev_moves;
                      stop := true
                  | None ->
                      List.iter (fun c -> cands_rev := c :: !cands_rev) r.e_cands
                end
              end)
            entry_results;
          (match (!found, !over_budget) with
          | Some rev_moves, _ ->
              result :=
                Some
                  (Driver.Sorted
                     {
                       depth = lvl;
                       moves = List.rev rev_moves;
                       stats = mk_stats (lvl - 1);
                     })
          | None, true ->
              result := Some (Driver.Inconclusive (mk_stats (lvl - 1)))
          | None, false ->
              (* commit in global entry order: a [`Dup] is a child equal
                 to a state already seen *)
              let fresh =
                List.filter_map
                  (fun (st, pre) ->
                    match commit st ~level:lvl with
                    | `Fresh idx -> Some (idx, pre)
                    | `Dup _ ->
                        incr deduped_total;
                        None)
                  (List.rev !cands_rev)
              in
              let survivors =
                match sys.Driver.dedup with
                | Driver.Equal -> fresh
                | Driver.Subsume ->
                    let kept_states, _ = Driver.subsume_filter kept fresh in
                    subsumed_total :=
                      !subsumed_total + List.length fresh
                      - List.length kept_states;
                    kept_states
              in
              let width = List.length survivors in
              sizes := width :: !sizes;
              frontier := survivors;
              incr level;
              Span.add sp "level" (Sink.Int lvl);
              Span.add sp "frontier" (Sink.Int width));
          if !result = None && cancelled () then
            result := Some (Driver.Interrupted (mk_stats lvl))
    end
  done;
  Arena.record_metrics arena;
  match !error with
  | Some e -> Error e
  | None ->
      let outcome =
        match !result with
        | Some r -> r
        | None -> Driver.Unsorted (mk_stats (!level - 1))
      in
      let s, verdict =
        match outcome with
        | Driver.Sorted { stats; _ } -> (stats, "sorted")
        | Driver.Unsorted stats -> (stats, "unsorted")
        | Driver.Inconclusive stats -> (stats, "inconclusive")
        | Driver.Interrupted stats -> (stats, "interrupted")
      in
      record_totals s;
      Span.add search_sp "outcome" (Sink.Str verdict);
      Span.add search_sp "nodes" (Sink.Int s.Driver.nodes);
      Span.add search_sp "shards" (Sink.Int shards);
      Ok outcome
