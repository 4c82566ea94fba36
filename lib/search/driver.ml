type budget = { max_nodes : int; max_seconds : float option }

let default_budget = { max_nodes = 200_000_000; max_seconds = None }

type stats = {
  nodes : int;
  pruned : int;
  deduped : int;
  subsumed : int;
  redundant : int;
  frontier_sizes : int list;
  peak_frontier : int;
  completed_levels : int;
  elapsed : float;
  elapsed_cpu : float;
}

type 'm outcome =
  | Sorted of { depth : int; moves : 'm list; stats : stats }
  | Unsorted of stats
  | Inconclusive of stats
  | Interrupted of stats

type dedup = Equal | Subsume

type 'm system = {
  n : int;
  tag : string;
  initial : State.t;
  moves_at : level:int -> 'm list;
  stage : Arena.t -> parent:int -> 'm -> unit;
  prune : level:int -> remaining:int -> State.t -> bool;
  redundant_of : level:int -> State.t -> 'm -> bool;
  dedup : dedup;
}

let no_prune ~level:_ ~remaining:_ _ = false
let no_redundant ~level:_ _ _ = false

(* Cumulative global counters, surfaced by --metrics / bench-json. *)
let c_nodes = Metrics.counter "search.nodes"
let c_pruned = Metrics.counter "search.pruned"
let c_deduped = Metrics.counter "search.deduped"
let c_subsumed = Metrics.counter "search.subsumed"
let c_levels = Metrics.counter "search.levels"

(* The static-analysis pruning hook lives under the analyzer's counter
   namespace: these are redundancy facts (lib/analysis Reach domain)
   consumed by the search. *)
let c_redundant = Metrics.counter "analysis.redundant_moves"
let c_ckpt_failures = Metrics.counter "checkpoint.failures"
let c_resumes = Metrics.counter "checkpoint.resumes"

(* The subsumption filter. At one domain it tests candidates one at a
   time against every representative kept so far — batches of one, no
   fan-out. With more domains, a level of at least
   [filter_min_candidates] candidates is cut into [filter_batch]-sized
   batches, each tested on every domain against the representatives kept
   before it began, in [filter_chunk]-candidate dynamic chunks: later
   candidates of a card-sorted batch scan further, so contiguous halves
   would leave one domain idle. A candidate whose subsumer is kept
   inside its own batch pays a full miss scan first — the price of the
   batch, worth paying only when another domain absorbs it. *)
let filter_min_candidates = 1024
let filter_batch = 4096
let filter_chunk = 16

(* Kept representatives as arena indices, sorted by ascending
   cardinality: a rep can only subsume candidates of >= its card
   (subsumption maps the reachable set injectively), so the scan for a
   candidate cuts off at the first larger card. *)
type kept = {
  arena : Arena.t;
  scratches : Arena.scratch array; (* one per domain *)
  mutable idx : int array;
  mutable card : int array;
  mutable len : int;
}

let kept ~domains arena =
  let domains = min Par.clamp_max (max 1 domains) in
  { arena;
    scratches = Array.init domains (fun _ -> Arena.scratch arena);
    idx = Array.make 256 0;
    card = Array.make 256 0;
    len = 0 }

let kept_insert k idx =
  if k.len = Array.length k.idx then begin
    let grow a =
      let a' = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    k.idx <- grow k.idx;
    k.card <- grow k.card
  end;
  let c = Arena.card k.arena idx in
  let lo = ref 0 and hi = ref k.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if k.card.(mid) <= c then lo := mid + 1 else hi := mid
  done;
  let pos = !lo in
  Array.blit k.idx pos k.idx (pos + 1) (k.len - pos);
  Array.blit k.card pos k.card (pos + 1) (k.len - pos);
  k.idx.(pos) <- idx;
  k.card.(pos) <- c;
  k.len <- k.len + 1

(* does one of the first [upto] kept reps subsume [cand]? Read-only, so
   any domain may run it with its own scratch while the kept arrays
   hold still *)
let kept_subsumes k sc ~upto cand =
  let idx = k.idx and card = k.card in
  let c = Arena.card k.arena cand in
  let i = ref 0 and hit = ref false in
  while (not !hit) && !i < upto && card.(!i) <= c do
    if Arena.subsumes_with k.arena sc idx.(!i) cand then hit := true;
    incr i
  done;
  !hit

(* Greedy subsumption filter over the candidates in ascending card
   order, batch by batch (see [filter_batch]), each batch settled by an
   in-order tail against the reps kept earlier in it. A candidate is
   dropped iff some rep kept before it subsumes it, as in a
   one-at-a-time filter, so survivors, kept order and counts are the
   same at every batch size. Candidates are arena rows, each committed,
   signed and unequal to every row committed before it. Returns the
   survivors in kept order and the number of domains used. *)
let subsume_filter k cands =
  let arena = k.arena and domains = Array.length k.scratches in
  let cands =
    Array.of_list
      (List.stable_sort
         (fun (a, _) (b, _) -> compare (Arena.card arena a) (Arena.card arena b))
         cands)
  in
  let m = Array.length cands in
  let batch =
    if domains = 1 || m < filter_min_candidates then 1 else filter_batch
  in
  let hit = Array.make (min batch m) false in
  let fresh = Array.make (min batch m) 0 in
  let used = ref 1 and survivors = ref [] and b0 = ref 0 in
  while !b0 < m do
    let lo = !b0 and upto = k.len in
    let hi = min m (lo + batch) in
    let workers =
      Par.iter_chunks ~domains ~chunk:filter_chunk ~lo ~hi
        (fun ~worker ~lo:a ~hi:b ->
          for i = a to b - 1 do
            hit.(i - lo) <- kept_subsumes k k.scratches.(worker) ~upto (fst cands.(i))
          done)
    in
    used := max !used workers;
    let nfresh = ref 0 in
    for i = lo to hi - 1 do
      let ((idx, _) as cand) = cands.(i) in
      let dropped = ref hit.(i - lo) and j = ref 0 in
      while (not !dropped) && !j < !nfresh do
        if Arena.subsumes arena fresh.(!j) idx then dropped := true;
        incr j
      done;
      if not !dropped then begin
        kept_insert k idx;
        fresh.(!nfresh) <- idx;
        incr nfresh;
        survivors := cand :: !survivors
      end
    done;
    b0 := hi
  done;
  (List.rev !survivors, !used)

(* --- checkpoint / resume --- *)

(* -3: [s_kept] holds bare states; the boxed subsumption fingerprints
   it used to carry were never read back. Older snapshots deserialize
   into a different record layout, so the kind is bumped and they are
   rejected as a whole — rerunning is always sound, resuming into a
   wrong layout never is. *)
let checkpoint_kind = "snlb-search-driver-3"

(* Everything run needs to continue from a level boundary exactly as
   if it had never stopped: the frontier (with the move prefixes that
   produced it), the cross-level equality and subsumption memories,
   every counter, and the wall/CPU time already spent (so budgets and
   reported stats cover the whole logical run, not just the last
   incarnation). *)
type 'm snapshot = {
  s_level : int;  (* next level to expand (1-based) *)
  s_frontier : (State.t * 'm list) list;
  s_seen : (int array, unit) Hashtbl.t;
  s_kept : State.t list;
  s_nodes : int;
  s_pruned : int;
  s_deduped : int;
  s_subsumed : int;
  s_redundant : int;
  s_sizes : int list;  (* reversed frontier_sizes, as kept by the loop *)
  s_elapsed : float;
  s_elapsed_cpu : float;
}

type resume_state = {
  rs_tag : string;
  rs_n : int;
  rs_max_depth : int;
  rs_dedup : string;
  rs_level : int;
  rs_payload : string;
}

let dedup_name = function Equal -> "equal" | Subsume -> "subsume"

let meta_int meta key =
  match List.assoc_opt key meta with
  | None -> Error (Printf.sprintf "missing meta key %S" key)
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "meta key %S is not an integer (%S)" key v))

let resume ~path =
  match Checkpoint.load ~path with
  | Error _ as e -> e
  | Ok (ck, source) -> (
      (match source with
      | `Primary -> ()
      | `Backup reason ->
          Printf.eprintf
            "snlb: falling back to checkpoint backup %s (%s)\n%!"
            (Atomic_file.backup_path path) reason);
      if ck.Checkpoint.kind <> checkpoint_kind then
        Error
          (Printf.sprintf "checkpoint %s holds a %S snapshot, not a search"
             path ck.Checkpoint.kind)
      else
        let meta = ck.Checkpoint.meta in
        let ( let* ) = Result.bind in
        let* n = meta_int meta "n" in
        let* max_depth = meta_int meta "max_depth" in
        let* level = meta_int meta "level" in
        let* tag =
          match List.assoc_opt "tag" meta with
          | Some t -> Ok t
          | None -> Error "missing meta key \"tag\""
        in
        let* dedup =
          match List.assoc_opt "dedup" meta with
          | Some d -> Ok d
          | None -> Error "missing meta key \"dedup\""
        in
        Ok
          { rs_tag = tag;
            rs_n = n;
            rs_max_depth = max_depth;
            rs_dedup = dedup;
            rs_level = level;
            rs_payload = ck.Checkpoint.payload })

let describe rs =
  Printf.sprintf "%s search, n=%d, max_depth=%d, next level %d" rs.rs_tag
    rs.rs_n rs.rs_max_depth rs.rs_level

(* The snapshot is only trusted when every compatibility key matches
   the run it is resumed into: the completed levels of a different
   max_depth were explored under a different prune budget, a different
   dedup mode keeps a different frontier, and a different move tag is
   a different search entirely. On mismatch the run degrades to a
   fresh start with a warning — resuming must never be less safe than
   rerunning. *)
let validate_resume ~max_depth sys rs =
  if rs.rs_tag <> sys.tag then
    Error (Printf.sprintf "move tag %S does not match this search (%S)" rs.rs_tag sys.tag)
  else if rs.rs_n <> sys.n then
    Error (Printf.sprintf "checkpoint is for n=%d, this search is n=%d" rs.rs_n sys.n)
  else if rs.rs_max_depth <> max_depth then
    Error
      (Printf.sprintf "checkpoint max_depth=%d, this search max_depth=%d"
         rs.rs_max_depth max_depth)
  else if rs.rs_dedup <> dedup_name sys.dedup then
    Error
      (Printf.sprintf "checkpoint dedup=%s, this search dedup=%s" rs.rs_dedup
         (dedup_name sys.dedup))
  else Ok ()

(* The level loop. The whole dedup memory lives in one {!Arena} (flat
   int64 rows + open addressing, no boxed keys), a child is built on the
   arena's staging row by the system's [stage], and subsumption runs on
   packed signatures. A level runs in three phases: the expansion,
   sequential because staging and dedup commits mutate the arena; one
   signature pass over the level's fresh rows; and the greedy
   subsumption filter. The last two fan out over [domains] and decide
   the same at every domain count. Snapshots convert to boxed
   [State.t] structures at flush time, so the checkpoint format does
   not depend on the arena's layout. *)
let run ?(domains = 1) ?(budget = default_budget) ?(sink = Sink.null) ?on_level
    ?frontier_log ?cancel ?checkpoint ?resume:resume_from ~max_depth sys =
  if max_depth < 0 then invalid_arg "Driver.run: max_depth must be >= 0";
  (* a validated snapshot, or None for a fresh start *)
  let snap : 'm snapshot option =
    match resume_from with
    | None -> None
    | Some rs -> (
        match validate_resume ~max_depth sys rs with
        | Ok () ->
            Metrics.incr c_resumes;
            Some (Marshal.from_string rs.rs_payload 0 : 'm snapshot)
        | Error why ->
            Printf.eprintf
              "snlb: ignoring incompatible checkpoint (%s); starting fresh\n%!"
              why;
            None)
  in
  let prior_elapsed, prior_cpu =
    match snap with
    | Some s -> (s.s_elapsed, s.s_elapsed_cpu)
    | None -> (0., 0.)
  in
  let w0 = Clock.wall () -. prior_elapsed in
  let cpu0 = Clock.cpu () -. prior_cpu in
  let nodes = ref (match snap with Some s -> s.s_nodes | None -> 0) in
  let over_budget = ref false in
  let interrupted = ref false in
  let cancelled () =
    (match cancel with Some t -> Cancel.cancelled t | None -> false)
    || !interrupted
  in
  let pruned_total = ref (match snap with Some s -> s.s_pruned | None -> 0) in
  let deduped_total = ref (match snap with Some s -> s.s_deduped | None -> 0) in
  let subsumed_total = ref (match snap with Some s -> s.s_subsumed | None -> 0) in
  let redundant_total =
    ref (match snap with Some s -> s.s_redundant | None -> 0)
  in
  let sizes = ref (match snap with Some s -> s.s_sizes | None -> []) in
  let mk_stats completed =
    { nodes = !nodes;
      pruned = !pruned_total;
      deduped = !deduped_total;
      subsumed = !subsumed_total;
      redundant = !redundant_total;
      frontier_sizes = List.rev !sizes;
      peak_frontier = List.fold_left max 0 !sizes;
      completed_levels = completed;
      elapsed = Clock.wall () -. w0;
      elapsed_cpu = Clock.cpu () -. cpu0 }
  in
  let record_totals s =
    Metrics.add c_nodes s.nodes;
    Metrics.add c_pruned s.pruned;
    Metrics.add c_deduped s.deduped;
    Metrics.add c_subsumed s.subsumed;
    Metrics.add c_redundant s.redundant;
    Metrics.add c_levels s.completed_levels
  in
  (* Checkpoints are cut at level boundaries — the only points where
     the loop state is a consistent prefix of the search. [interval]
     throttles the writes; the latest unwritten boundary payload is
     retained so an interruption can flush it. *)
  let ckpt_path, ckpt_interval =
    match checkpoint with
    | Some (p, i) -> (Some p, max 0. i)
    | None -> (None, 0.)
  in
  (* the cadence clock starts now: the first on-cadence write falls
     due one full interval into the run, so short runs don't pay for
     a write they'll never need (an interruption flushes regardless) *)
  let last_write = ref (Clock.wall ()) in
  let pending : (unit -> string * int) option ref = ref None in
  let flush_payload mk =
    let payload, boundary_level = mk () in
    match ckpt_path with
    | None -> ()
    | Some path -> (
        match
          Checkpoint.write ~path
            { Checkpoint.kind = checkpoint_kind;
              meta =
                [ ("tag", sys.tag);
                  ("n", string_of_int sys.n);
                  ("max_depth", string_of_int max_depth);
                  ("dedup", dedup_name sys.dedup);
                  ("level", string_of_int boundary_level) ];
              payload }
        with
        | Ok () ->
            last_write := Clock.wall ();
            pending := None
        | Error e ->
            Metrics.incr c_ckpt_failures;
            Printf.eprintf
              "snlb: checkpoint write failed (%s); search continues\n%!" e)
  in
  let levels () =
    let arena = Arena.create ~with_sigs:(sys.dedup = Subsume) ~n:sys.n () in
    let kept = kept ~domains arena in
    let commit_existing st =
      Arena.stage_state arena st;
      match Arena.commit arena ~level:0 with `Fresh i | `Dup i -> i
    in
    let frontier = ref [] in
    (match snap with
    | None -> frontier := [ (commit_existing sys.initial, []) ]
    | Some s ->
        (* rehydrate the snapshot: every seen state becomes a committed
           row, then kept and frontier resolve to their indices by
           dedup *)
        Hashtbl.iter
          (fun key () -> ignore (commit_existing (State.of_key ~n:sys.n key)))
          s.s_seen;
        List.iter
          (fun st -> kept_insert kept (commit_existing st))
          (List.rev s.s_kept);
        frontier := List.map (fun (st, pre) -> (commit_existing st, pre)) s.s_frontier);
    let result = ref None in
    let level = ref (match snap with Some s -> s.s_level | None -> 1) in
    (* last completed boundary's row count: an interrupted level's
       commits are truncated back to it before the final flush *)
    let boundary_len = ref (Arena.length arena) in
    (* Capture the boundary NOW but serialize lazily, at flush time: the
       scalars below are overwritten by the very next level, so they are
       pinned eagerly, while the frontier and the committed rows up to
       the boundary hold still until the next boundary installs a fresh
       thunk (an interrupted level's rows are truncated away before its
       flush). Skipped boundaries therefore cost a closure, not a
       Marshal of the whole search state. *)
    let snapshot_payload () =
      let s_level = !level
      and s_nodes = !nodes
      and s_pruned = !pruned_total
      and s_deduped = !deduped_total
      and s_subsumed = !subsumed_total
      and s_redundant = !redundant_total
      and s_sizes = !sizes
      and s_elapsed = Clock.wall () -. w0
      and s_elapsed_cpu = Clock.cpu () -. cpu0 in
      fun () ->
        let seen = Hashtbl.create (2 * Arena.length arena) in
        for idx = 0 to Arena.length arena - 1 do
          Hashtbl.replace seen (State.key (Arena.to_state arena idx)) ()
        done;
        let s_kept =
          List.init kept.len (fun k -> Arena.to_state arena kept.idx.(k))
        in
        let s_frontier =
          List.map (fun (idx, pre) -> (Arena.to_state arena idx, pre)) !frontier
        in
        ( Marshal.to_string
            { s_level;
              s_frontier;
              s_seen = seen;
              s_kept;
              s_nodes;
              s_pruned;
              s_deduped;
              s_subsumed;
              s_redundant;
              s_sizes;
              s_elapsed;
              s_elapsed_cpu }
            [],
          s_level )
    in
    (* the per-phase clocks are read only when a trace is recorded *)
    let timed = Sink.enabled sink in
    let clock () = if timed then Clock.wall () else 0. in
    while !result = None && !level <= max_depth && !frontier <> [] do
      let lvl = !level in
      let nodes0 = !nodes in
      let pruned0 = !pruned_total
      and deduped0 = !deduped_total
      and subsumed0 = !subsumed_total
      and redundant0 = !redundant_total in
      (* nested under the "search" span: the event path is
         "search/level" *)
      Span.run ~sink ~name:"level" @@ fun sp ->
      let t_expand = clock () in
      let moves = sys.moves_at ~level:lvl in
      let remaining = max_depth - lvl in
      let last = lvl = max_depth in
      let candidates = ref [] in
      (* equality-dup hits are tallied locally and folded in only when
         the level completes: an interrupted or over-budget level never
         reaches its dedup count *)
      let level_deduped = ref 0 in
      let found = ref None in
      (try
         List.iter
           (fun (pidx, pre) ->
             if cancelled () then raise Exit;
             (* analysis hook: moves the system proves redundant for
                this state (another available move reaches the same
                child) are skipped before they are staged or counted as
                nodes *)
             let is_red =
               if sys.redundant_of == no_redundant then fun _ -> false
               else sys.redundant_of ~level:lvl (Arena.to_state arena pidx)
             in
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
             let before = !nodes in
             nodes := before + nlive;
             let timed_out =
               match budget.max_seconds with
               | Some s -> Clock.wall () -. w0 > s
               | None -> false
             in
             if before + nlive > budget.max_nodes || timed_out then begin
               over_budget := true;
               (* the tripping state's own redundancy tally is
                  discarded *)
               raise Exit
             end;
             redundant_total := !redundant_total + !redundant;
             List.iter
               (fun m ->
                 sys.stage arena ~parent:pidx m;
                 if Arena.staged_is_sorted arena then begin
                   found := Some (m :: pre);
                   raise Exit
                 end
                 else if last then ()
                 else if
                   sys.prune != no_prune
                   && sys.prune ~level:lvl ~remaining (Arena.staged_state arena)
                 then incr pruned_total
                 else
                   match Arena.commit_unsigned arena ~level:lvl with
                   | `Fresh idx -> candidates := (idx, m :: pre) :: !candidates
                   | `Dup _ -> incr level_deduped)
               live)
           !frontier
       with Exit -> ());
      let expand_s = clock () -. t_expand in
      let sign_s = ref 0. and filter_s = ref 0. and filter_domains = ref 0 in
      let surviving =
        match !found with
        | Some rev_moves ->
            result :=
              Some
                (Sorted
                   { depth = lvl;
                     moves = List.rev rev_moves;
                     stats = mk_stats (lvl - 1) });
            0
        | None ->
            if !over_budget then begin
              result := Some (Inconclusive (mk_stats (lvl - 1)));
              0
            end
            else if cancelled () then begin
              (* killed mid-level: the current level's partial work is
                 discarded; the checkpoint (if any) holds the last
                 completed boundary, so a resumed run repeats exactly
                 this level and the cumulative counts match a
                 never-interrupted run *)
              result := Some (Interrupted (mk_stats (lvl - 1)));
              0
            end
            else begin
              deduped_total := !deduped_total + !level_deduped;
              let fresh = List.rev !candidates in
              let survivors =
                match sys.dedup with
                | Equal -> fresh
                | Subsume ->
                    let t_sign = clock () in
                    Arena.sign_pending arena kept.scratches;
                    let t_filter = clock () in
                    sign_s := t_filter -. t_sign;
                    let survivors, used = subsume_filter kept fresh in
                    subsumed_total :=
                      !subsumed_total + List.length fresh - List.length survivors;
                    filter_s := clock () -. t_filter;
                    filter_domains := used;
                    survivors
              in
              let width = List.length survivors in
              (match frontier_log with
              | Some f ->
                  f ~level:lvl
                    (List.map (fun (idx, _) -> Arena.to_state arena idx)
                       survivors)
              | None -> ());
              sizes := width :: !sizes;
              frontier := survivors;
              incr level;
              width
            end
      in
      (* per-level deltas: summing these fields over all level events
         reproduces the run's final stats exactly *)
      Span.add sp "level" (Sink.Int lvl);
      Span.add sp "nodes" (Sink.Int (!nodes - nodes0));
      Span.add sp "pruned" (Sink.Int (!pruned_total - pruned0));
      Span.add sp "deduped" (Sink.Int (!deduped_total - deduped0));
      Span.add sp "subsumed" (Sink.Int (!subsumed_total - subsumed0));
      Span.add sp "redundant" (Sink.Int (!redundant_total - redundant0));
      Span.add sp "frontier" (Sink.Int surviving);
      (* phase times (0 when the phase did not run) and the domains the
         filter used (0 when it did not run) *)
      Span.add sp "expand_s" (Sink.Float expand_s);
      Span.add sp "sign_s" (Sink.Float !sign_s);
      Span.add sp "filter_s" (Sink.Float !filter_s);
      Span.add sp "filter_domains" (Sink.Int !filter_domains);
      (match on_level with
      | Some f when !result = None ->
          (* level lvl fully expanded and deduplicated *)
          f ~level:lvl ~frontier:surviving (mk_stats lvl)
      | Some _ | None -> ());
      (* level boundary: cut a snapshot, flush on the cadence *)
      if !result = None then begin
        boundary_len := Arena.length arena;
        if ckpt_path <> None then begin
          let payload = snapshot_payload () in
          pending := Some payload;
          if Clock.wall () -. !last_write >= ckpt_interval then
            flush_payload payload
        end;
        (* simulated mid-run kill: fires after the boundary flush so
           every incarnation makes progress (exactly one level) *)
        if Fault.fire "kill-level" then interrupted := true;
        if cancelled () then result := Some (Interrupted (mk_stats lvl))
      end
    done;
    (* a final flush covers boundaries the cadence skipped, so an
       interrupted run never loses more than the in-flight level *)
    (match (!result, !pending) with
    | Some (Interrupted _), Some payload ->
        (* drop the in-flight level's commits so the lazily-built
           snapshot matches the boundary it was cut at *)
        Arena.truncate arena !boundary_len;
        flush_payload payload
    | _ -> ());
    Arena.record_metrics arena;
    match !result with
    | Some r -> r
    | None ->
        (* loop left because level > max_depth or the frontier emptied:
           every reachable state was explored with its maximal remaining
           budget, so no prefix of <= max_depth moves sorts *)
        Unsorted (mk_stats (!level - 1))
  in
  Span.run ~sink ~name:"search" @@ fun search_sp ->
  let outcome =
    if State.is_sorted sys.initial then
      Sorted { depth = 0; moves = []; stats = mk_stats 0 }
    else levels ()
  in
  let s, verdict =
    match outcome with
    | Sorted { stats; _ } -> (stats, "sorted")
    | Unsorted stats -> (stats, "unsorted")
    | Inconclusive stats -> (stats, "inconclusive")
    | Interrupted stats -> (stats, "interrupted")
  in
  record_totals s;
  Span.add search_sp "outcome" (Sink.Str verdict);
  Span.add search_sp "nodes" (Sink.Int s.nodes);
  Span.add search_sp "pruned" (Sink.Int s.pruned);
  Span.add search_sp "deduped" (Sink.Int s.deduped);
  Span.add search_sp "subsumed" (Sink.Int s.subsumed);
  Span.add search_sp "redundant" (Sink.Int s.redundant);
  Span.add search_sp "peak_frontier" (Sink.Int s.peak_frontier);
  Span.add search_sp "completed_levels" (Sink.Int s.completed_levels);
  outcome

(* --- sorting-network instantiation --- *)

type layer = Layers.layer

let network_system ?(restrict = true) ~n () =
  if n < 2 || n > 10 then
    invalid_arg "Driver.network_system: n must be in [2, 10]";
  let all = Layers.all ~n in
  let first = [ Layers.first ~n ] in
  let second = if restrict then Layers.second ~n else all in
  let moves_at ~level =
    if level = 1 then first else if level = 2 then second else all
  in
  (* Analysis hook (restricted mode, levels >= 3 only): a layer
     containing a comparator [(i, j)] that never fires on the state's
     reachable set — no reachable mask has bit [i] set and bit [j]
     clear ({!Reach.unordered_pairs} over {!State.iter_masks}) —
     reaches exactly the state of that layer minus the comparator.
     [Layers.all] contains every nonempty matching, so from level 3 on
     the smaller layer is itself an available move (or, when it
     empties, the child equals the parent, which the equality dedup
     already represents); skipping the larger layer therefore loses no
     depth-optimal witness. Level 2 serves only symmetry
     representatives, where the sub-layer may be absent, and level 1
     is fixed — the hook stays off there. The reference system keeps
     the hook off entirely: it is the exhaustive baseline the pruned
     search is validated against. *)
  let redundant_of ~level st =
    if not restrict || level <= 2 then fun _ -> false
    else begin
      let tbl =
        lazy (Reach.unordered_pairs ~n ~iter:(fun f -> State.iter_masks f st))
      in
      fun layer ->
        List.exists
          (fun (i, j) -> not (Reach.pair_unordered (Lazy.force tbl) ~n i j))
          layer
    end
  in
  { n;
    tag = (if restrict then "layers" else "layers-reference");
    initial = State.initial ~n;
    moves_at;
    stage = (fun arena ~parent layer -> Arena.stage_child arena ~parent layer);
    prune = no_prune;
    redundant_of;
    dedup = (if restrict then Subsume else Equal) }

let optimal_depth ?domains ?budget ?sink ?on_level ?frontier_log ?cancel
    ?checkpoint ?resume ?restrict ?max_depth ~n () =
  let max_depth = match max_depth with Some d -> d | None -> n in
  run ?domains ?budget ?sink ?on_level ?frontier_log ?cancel
    ?checkpoint ?resume ~max_depth
    (network_system ?restrict ~n ())

let witness_network ~n layers =
  Network.of_gate_levels ~wires:n (List.map Layers.gates layers)

let verify_witness ~n layers =
  Bitslice.is_sorting_network (Cache.compile (witness_network ~n layers))
