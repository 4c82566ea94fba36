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
   namespace: these are redundancy facts (comparators that cannot fire
   on a state's reachable 0-1 set) consumed by the search. *)
let c_redundant = Metrics.counter "analysis.redundant_moves"

(* The subsumption filter works a level in chunks: once the level's
   expansion has committed [chunk_candidates] fresh children, it
   finishes the parent it is on, then filters that chunk against every
   representative kept so far and drops the losing rows from the
   arena, so the arena holds the representatives plus about one chunk
   instead of every child the search ever made. A fixed count, never
   tied to the domain count: where a chunk ends decides which children
   meet the dedup table and which the filter, so [deduped] and
   [subsumed] repeat at every domain count and across resumes. *)
let chunk_candidates = 16_384

(* A chunk of at least [filter_min_candidates] candidates is cut into
   [filter_batch]-sized batches, each tested on every domain against
   the representatives kept before it began, in [filter_grain]-candidate
   dynamic pieces: later candidates of a card-sorted batch scan
   further, so contiguous halves would leave one domain idle. A
   candidate whose subsumer is kept inside its own batch pays a full
   miss scan first — the price of the batch, which one domain pays too,
   so that the filter's counters repeat at every domain count. A
   smaller chunk is tested one candidate at a time. *)
let filter_min_candidates = 1024
let filter_batch = 4096
let filter_grain = 16

(* One domain's filter state: its arena scratch, the key of the
   candidate it is testing, and its share of the level's counters —
   summed after the level, so the scan loop touches no shared
   counter. *)
type fscratch = {
  sc : Arena.scratch;
  key : int array;
  mutable scanned : int; (* reps looked at *)
  mutable calls : int; (* full [Arena.subsumes_with] tests *)
  mutable hit_scanned : int; (* [scanned] by scans that found a subsumer *)
  mutable hit_calls : int; (* [calls] by scans that found a subsumer *)
}

(* Representatives as arena indices, sorted by ascending cardinality:
   a rep can only subsume candidates of >= its card (subsumption maps
   the reachable set injectively), so the scan for a candidate cuts off
   at the first larger card. Each rep's pre-filter key
   ([Arena.blit_key]: level signature and sorted degree words) sits
   beside its card, [kw] words per rep in the same order, so the scan
   reads contiguous memory and reaches the arena only for reps whose
   key does not refute the candidate. *)
type reps = {
  mutable idx : int array;
  mutable card : int array;
  mutable keys : int array;
  mutable len : int;
}

type kept = {
  arena : Arena.t;
  scratches : fscratch array; (* one per domain *)
  kw : int;
  guards : int array;
  all : reps; (* every rep kept so far *)
  batch_reps : reps; (* the reps kept in the current batch *)
}

let empty_reps kw =
  { idx = Array.make 256 0;
    card = Array.make 256 0;
    keys = Array.make (256 * kw) 0;
    len = 0 }

let kept ~domains arena =
  let domains = min Par.clamp_max (max 1 domains) in
  let kw = Arena.key_words arena in
  { arena;
    scratches =
      Array.init domains (fun _ ->
          { sc = Arena.scratch arena;
            key = Array.make kw 0;
            scanned = 0;
            calls = 0;
            hit_scanned = 0;
            hit_calls = 0 });
    kw;
    guards = Arena.key_guards arena;
    all = empty_reps kw;
    batch_reps = empty_reps kw }

(* insert after every rep of the same or a smaller card *)
let reps_insert k r idx =
  if r.len = Array.length r.idx then begin
    let grow a =
      let a' = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    r.idx <- grow r.idx;
    r.card <- grow r.card;
    r.keys <- grow r.keys
  end;
  let c = Arena.card k.arena idx in
  let lo = ref 0 and hi = ref r.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if r.card.(mid) <= c then lo := mid + 1 else hi := mid
  done;
  let pos = !lo and kw = k.kw in
  Array.blit r.idx pos r.idx (pos + 1) (r.len - pos);
  Array.blit r.card pos r.card (pos + 1) (r.len - pos);
  Array.blit r.keys (pos * kw) r.keys ((pos + 1) * kw) ((r.len - pos) * kw);
  r.idx.(pos) <- idx;
  r.card.(pos) <- c;
  Arena.blit_key k.arena idx r.keys (pos * kw);
  r.len <- r.len + 1

(* renumber the reps' rows by [f] after the arena dropped rows, and
   drop the reps [f] maps to -1, in place and in order *)
let reps_remap k r f =
  let kw = k.kw and j = ref 0 in
  for i = 0 to r.len - 1 do
    let idx = f r.idx.(i) in
    if idx >= 0 then begin
      if !j < i then begin
        r.card.(!j) <- r.card.(i);
        Array.blit r.keys (i * kw) r.keys (!j * kw) kw
      end;
      r.idx.(!j) <- idx;
      incr j
    end
  done;
  r.len <- !j

(* does one of the first [upto] reps of [r] whose row is at least [lim]
   subsume [cand]? Only a rep whose card and key pass (the borrow test
   of [Arena.key_guards], unrolled for the three-word key of n <= 9)
   costs a [subsumes_with] call. Read-only on [r], so any domain may
   run it with its own scratch while the rep arrays hold still. *)
let subsumed_in k fs r ~upto ~lim cand =
  let arena = k.arena and idx = r.idx and card = r.card and keys = r.keys in
  let c = Arena.card arena cand in
  let key = fs.key in
  Arena.blit_key arena cand key 0;
  let i = ref 0 and hit = ref false and calls = ref 0 in
  (if k.kw = 3 then begin
     let gl = k.guards.(0) and gd = k.guards.(1) in
     let l = key.(0) lor gl and o = key.(1) lor gd and n = key.(2) lor gd in
     while (not !hit) && !i < upto && Array.unsafe_get card !i <= c do
       let b = 3 * !i in
       if
         (l - Array.unsafe_get keys b) land gl = gl
         && (o - Array.unsafe_get keys (b + 1)) land gd = gd
         && (n - Array.unsafe_get keys (b + 2)) land gd = gd
         && idx.(!i) >= lim
       then begin
         incr calls;
         if Arena.subsumes_with arena fs.sc idx.(!i) cand then hit := true
       end;
       incr i
     done
   end
   else begin
     let kw = k.kw and g = k.guards in
     for w = 0 to kw - 1 do
       key.(w) <- key.(w) lor g.(w)
     done;
     while (not !hit) && !i < upto && Array.unsafe_get card !i <= c do
       let b = kw * !i and w = ref 0 in
       while !w < kw && (key.(!w) - keys.(b + !w)) land g.(!w) = g.(!w) do
         incr w
       done;
       if !w = kw && idx.(!i) >= lim then begin
         incr calls;
         if Arena.subsumes_with arena fs.sc idx.(!i) cand then hit := true
       end;
       incr i
     done
   end);
  fs.scanned <- fs.scanned + !i;
  fs.calls <- fs.calls + !calls;
  if !hit then begin
    fs.hit_scanned <- fs.hit_scanned + !i;
    fs.hit_calls <- fs.hit_calls + !calls
  end;
  !hit

type filter_counts = {
  scanned : int;
  calls : int;
  hit_scanned : int;
  hit_calls : int;
  backtracks : int;
  leaves : int;
}

let filter_counts k =
  Array.fold_left
    (fun acc (fs : fscratch) ->
      { scanned = acc.scanned + fs.scanned;
        calls = acc.calls + fs.calls;
        hit_scanned = acc.hit_scanned + fs.hit_scanned;
        hit_calls = acc.hit_calls + fs.hit_calls;
        backtracks = acc.backtracks + Arena.backtracks fs.sc;
        leaves = acc.leaves + Arena.leaves fs.sc })
    { scanned = 0; calls = 0; hit_scanned = 0; hit_calls = 0; backtracks = 0;
      leaves = 0 }
    k.scratches

let by_card k l =
  List.stable_sort
    (fun (a, _) (b, _) -> compare (Arena.card k.arena a) (Arena.card k.arena b))
    l

(* Greedy subsumption filter over one chunk's candidates in ascending
   card order, batch by batch (see [filter_batch]), each batch settled
   by an in-order tail against the reps kept earlier in it. A candidate
   is dropped iff some rep kept before it subsumes it, as in a
   one-at-a-time filter, so survivors, kept order and counts are the
   same at every batch size. Candidates are arena rows, each committed,
   signed and unequal to every row in the arena before it. Returns the
   survivors in kept order, each already in [k.all], and the number of
   domains used. *)
let subsume_filter k cands =
  let domains = Array.length k.scratches in
  let cands = Array.of_list (by_card k cands) in
  let m = Array.length cands in
  let batch =
    if m < filter_min_candidates then 1 else filter_batch
  in
  let hit = Array.make (min batch m) false in
  let used = ref 1 and survivors = ref [] and b0 = ref 0 in
  while !b0 < m do
    let lo = !b0 and upto = k.all.len in
    let hi = min m (lo + batch) in
    let workers =
      Par.iter_chunks ~domains ~chunk:filter_grain ~lo ~hi
        (fun ~worker ~lo:a ~hi:b ->
          for i = a to b - 1 do
            hit.(i - lo) <-
              subsumed_in k k.scratches.(worker) k.all ~upto ~lim:0
                (fst cands.(i))
          done)
    in
    used := max !used workers;
    (* the tail runs on this domain once the workers are joined, so it
       borrows worker 0's scratch *)
    let tail = k.scratches.(0) and fresh = k.batch_reps in
    fresh.len <- 0;
    for i = lo to hi - 1 do
      let ((idx, _) as cand) = cands.(i) in
      if
        not
          (hit.(i - lo)
          || subsumed_in k tail fresh ~upto:fresh.len ~lim:0 idx)
      then begin
        reps_insert k k.all idx;
        reps_insert k fresh idx;
        survivors := cand :: !survivors
      end
    done;
    b0 := hi
  done;
  (List.rev !survivors, !used)

(* Of the arena's rows at or past [from], keep those of [survivors]
   and drop the rest, renumbering the reps to match (a rep whose row
   goes, goes too). Returns [survivors], in order, under their new
   rows. *)
let drop_rows k ~from survivors =
  let rows = Array.of_list (List.map fst survivors) in
  Array.sort compare rows;
  let renum = Array.make (Arena.length k.arena - from) (-1) in
  Array.iteri (fun i r -> renum.(r - from) <- from + i) rows;
  Arena.retain k.arena ~prefix:from rows;
  let f idx = if idx < from then idx else renum.(idx - from) in
  reps_remap k k.all f;
  List.map (fun (idx, x) -> (f idx, x)) survivors

(* The settle pass. [chunks] holds each chunk's survivors, in kept
   order, the first chunk first; their rows follow [from] in that
   order. The level's frontier is the greedy filter of all of them in
   stable card order. A chunk survivor x can lose only to a survivor y
   of a later chunk with a smaller card: a y of the same or an earlier
   chunk was a rep while x's chunk was filtered, and an equal card
   makes x and y subsume each other, which the later one's filter
   would have caught. A y that lost in turn lost to a survivor that
   also beats x, so every x is tested once against the reps whose row
   lies past its own chunk, on every domain, and x is dropped iff one
   of them subsumes it. Returns the frontier with the arena and
   [k.all] stripped of the losers, and the number of domains used. *)
let settle k ~from chunks =
  match chunks with
  | [] | [ _ ] -> (List.concat chunks, 1)
  | _ ->
      let cands = Array.of_list (List.concat chunks) in
      let m = Array.length cands in
      (* each candidate's bound: the first row of the next chunk *)
      let lim = Array.make m 0 and i = ref 0 and row = ref from in
      List.iter
        (fun chunk ->
          row := !row + List.length chunk;
          List.iter
            (fun _ ->
              lim.(!i) <- !row;
              incr i)
            chunk)
        chunks;
      let hit = Array.make m false in
      let domains =
        if m < filter_min_candidates then 1 else Array.length k.scratches
      in
      let upto = k.all.len in
      let used =
        Par.iter_chunks ~domains ~chunk:filter_grain ~lo:0 ~hi:m
          (fun ~worker ~lo ~hi ->
            for i = lo to hi - 1 do
              hit.(i) <-
                subsumed_in k k.scratches.(worker) k.all ~upto ~lim:lim.(i)
                  (fst cands.(i))
            done)
      in
      let survivors =
        List.filteri (fun i _ -> not hit.(i)) (Array.to_list cands)
      in
      (by_card k (drop_rows k ~from survivors), used)

(* --- checkpoint / resume --- *)

(* -4: the subsumption search drops the rows its filter rejects, so
   the dedup memory holds the representatives only, and a -3 snapshot
   (every row ever committed) would resume into other deduped and
   subsumed counts. Rows are stored in arena order, so a resumed arena
   numbers them as the interrupted one did. *)
let checkpoint_kind = "snlb-search-driver-4"

(* Everything run needs to continue from a level boundary exactly as
   if it had never stopped: the arena's rows (the dedup memory), the
   kept representatives, the frontier (with the move prefixes that
   produced it), every counter, and the wall/CPU time already spent
   (so budgets and reported stats cover the whole logical run, not
   just the last incarnation). *)
type 'm snapshot = {
  s_level : int;  (* next level to expand (1-based) *)
  s_rows : State.t list;  (* every row, in row order *)
  s_kept : State.t list;  (* in kept order *)
  s_frontier : (State.t * 'm list) list;
  s_nodes : int;
  s_pruned : int;
  s_deduped : int;
  s_subsumed : int;
  s_redundant : int;
  s_sizes : int list;  (* reversed frontier_sizes, as kept by the loop *)
  s_elapsed : float;
  s_elapsed_cpu : float;
}

let dedup_name = function Equal -> "equal" | Subsume -> "subsume"

(* The snapshot is only trusted when every key matches the run it is
   resumed into: the completed levels of a different max_depth were
   explored under a different prune budget, a different dedup mode
   keeps a different frontier, and a different move tag is a different
   search entirely. *)
let checkpoint_spec ~max_depth sys =
  { Checkpoint.kind = checkpoint_kind;
    keys =
      [ ("tag", sys.tag);
        ("n", string_of_int sys.n);
        ("max_depth", string_of_int max_depth);
        ("dedup", dedup_name sys.dedup) ];
    step = "level" }

(* The level loop. The whole dedup memory lives in one {!Arena} (flat
   int64 rows + open addressing, no boxed keys), and a child is built
   on the arena's staging row by the system's [stage]. The expansion
   is sequential because staging and dedup commits mutate the arena.
   With subsumption, every [chunk_candidates] fresh children (at a
   parent boundary) are signed in one pass, filtered against every
   representative kept so far, and their losing rows dropped; once the
   level's parents are done, a settle pass re-filters the chunks'
   survivors against each other. Signing, filtering and settling fan
   out over [domains] and decide the same at every domain count.
   Snapshots convert to boxed [State.t] keys at flush time, so the
   checkpoint format does not depend on the arena's layout. *)
let run ?(domains = 1) ?(budget = default_budget) ?(sink = Sink.null) ?on_level
    ?frontier_log ?cancel ?checkpoint ?(resume = false) ~max_depth sys =
  if max_depth < 0 then invalid_arg "Driver.run: max_depth must be >= 0";
  let spec = checkpoint_spec ~max_depth sys in
  (* a snapshot that passed the checkpoint contract, or None for a
     fresh start *)
  let snap : 'm snapshot option =
    if not resume then None
    else
      Checkpoint.resume spec (Option.map fst checkpoint)
        ~decode:(fun ~step:_ payload -> Ok (Marshal.from_string payload 0))
      |> Option.map (fun s ->
             Printf.eprintf
               "snlb: resuming %s search, n=%d, max_depth=%d, next level %d\n%!"
               sys.tag sys.n max_depth s.s_level;
             s)
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
     the loop state is a consistent prefix of the search. *)
  let ckpt = Checkpoint.writer spec checkpoint in
  let levels () =
    let arena = Arena.create ~with_sigs:(sys.dedup = Subsume) ~n:sys.n () in
    let kept = kept ~domains arena in
    let scratches = Array.map (fun fs -> fs.sc) kept.scratches in
    let commit_existing st =
      Arena.stage_state arena st;
      match Arena.commit arena ~level:0 with `Fresh i | `Dup i -> i
    in
    let frontier = ref [] in
    (match snap with
    | None -> frontier := [ (commit_existing sys.initial, []) ]
    | Some s ->
        (* rehydrate the snapshot: its rows, committed in order, take
           their old numbers back, and kept and frontier resolve to
           them by dedup *)
        List.iter (fun st -> ignore (commit_existing st)) s.s_rows;
        List.iter (fun st -> reps_insert kept kept.all (commit_existing st)) s.s_kept;
        frontier := List.map (fun (st, pre) -> (commit_existing st, pre)) s.s_frontier);
    let result = ref None in
    let level = ref (match snap with Some s -> s.s_level | None -> 1) in
    (* Capture the boundary NOW but serialize lazily, when the writer
       writes it: the scalars below are overwritten by the very next
       level, so they are pinned eagerly, while the arena, the kept
       reps and the frontier hold still until the next boundary
       replaces this thunk — a level that does not complete is rolled
       back to them before the loop ends. Skipped boundaries therefore
       cost a closure, not a Marshal of the whole search state. *)
    let cut_boundary () =
      let s_level = !level
      and s_nodes = !nodes
      and s_pruned = !pruned_total
      and s_deduped = !deduped_total
      and s_subsumed = !subsumed_total
      and s_redundant = !redundant_total
      and s_sizes = !sizes
      and s_elapsed = Clock.wall () -. w0
      and s_elapsed_cpu = Clock.cpu () -. cpu0 in
      Checkpoint.boundary ckpt ~step:s_level @@ fun () ->
      let state idx = Arena.to_state arena idx in
      Marshal.to_string
        { s_level;
          s_rows = List.init (Arena.length arena) state;
          s_kept = List.init kept.all.len (fun i -> state kept.all.idx.(i));
          s_frontier = List.map (fun (idx, pre) -> (state idx, pre)) !frontier;
          s_nodes;
          s_pruned;
          s_deduped;
          s_subsumed;
          s_redundant;
          s_sizes;
          s_elapsed;
          s_elapsed_cpu }
        []
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
      let moves = sys.moves_at ~level:lvl in
      let remaining = max_depth - lvl in
      let last = lvl = max_depth in
      let level_start = Arena.length arena in
      let counts0 = filter_counts kept in
      (* the current chunk's fresh rows, newest first (the arena's
         last [chunk_len] rows), and the survivors of the chunks
         already filtered, newest chunk first *)
      let chunk = ref [] and chunk_len = ref 0 in
      let settled = ref [] and parents_done = ref 0 in
      (* equality-dup hits and filter drops are tallied locally and
         folded in only when the level completes: an interrupted or
         over-budget level never reaches its counts *)
      let level_deduped = ref 0 and level_subsumed = ref 0 in
      let expand_s = ref 0. and sign_s = ref 0. and filter_s = ref 0.
      and settle_s = ref 0. and filter_domains = ref 0 in
      let t_expand = ref (clock ()) in
      (* sign the chunk, filter it against every rep kept so far and
         drop its losing rows *)
      let settle_chunk () =
        let t_sign = clock () in
        Arena.sign_pending arena scratches;
        let t_filter = clock () in
        let survivors, used = subsume_filter kept (List.rev !chunk) in
        let survivors =
          drop_rows kept ~from:(Arena.length arena - !chunk_len) survivors
        in
        let t_done = clock () in
        settled := survivors :: !settled;
        sign_s := !sign_s +. (t_filter -. t_sign);
        filter_s := !filter_s +. (t_done -. t_filter);
        filter_domains := max !filter_domains used;
        let kept_rows = List.length survivors in
        level_subsumed := !level_subsumed + !chunk_len - kept_rows;
        if timed then
          Sink.emit sink ~ev:"progress" ~name:"search/chunk"
            [ ("level", Sink.Int lvl);
              ("parents", Sink.Int !parents_done);
              ("candidates", Sink.Int !chunk_len);
              ("survivors", Sink.Int kept_rows);
              ("arena_bytes", Sink.Int (Arena.bytes arena)) ];
        chunk := [];
        chunk_len := 0
      in
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
                   | `Fresh idx ->
                       chunk := (idx, m :: pre) :: !chunk;
                       incr chunk_len
                   | `Dup _ -> incr level_deduped)
               live;
             incr parents_done;
             if sys.dedup = Subsume && !chunk_len >= chunk_candidates then begin
               expand_s := !expand_s +. (clock () -. !t_expand);
               settle_chunk ();
               t_expand := clock ()
             end)
           !frontier
       with Exit -> ());
      expand_s := !expand_s +. (clock () -. !t_expand);
      let surviving =
        if Option.is_some !found || !over_budget || cancelled () then begin
          (* the level is abandoned: its rows and reps go, so the
             arena and the kept reps are the last boundary's again *)
          ignore (drop_rows kept ~from:level_start []);
          (match !found with
          | Some rev_moves ->
              result :=
                Some
                  (Sorted
                     { depth = lvl;
                       moves = List.rev rev_moves;
                       stats = mk_stats (lvl - 1) })
          | None when !over_budget ->
              result := Some (Inconclusive (mk_stats (lvl - 1)))
          | None ->
              (* killed mid-level: the current level's partial work is
                 discarded; the checkpoint (if any) holds the last
                 completed boundary, so a resumed run repeats exactly
                 this level and the cumulative counts match a
                 never-interrupted run *)
              result := Some (Interrupted (mk_stats (lvl - 1))));
          0
        end
        else begin
          let survivors =
            match sys.dedup with
            | Equal -> List.rev !chunk
            | Subsume ->
                if !chunk_len > 0 then settle_chunk ();
                let t_settle = clock () in
                let chunk_survivors = Arena.length arena - level_start in
                let survivors, used =
                  settle kept ~from:level_start (List.rev !settled)
                in
                settle_s := clock () -. t_settle;
                filter_domains := max !filter_domains used;
                level_subsumed :=
                  !level_subsumed + chunk_survivors - List.length survivors;
                survivors
          in
          deduped_total := !deduped_total + !level_deduped;
          subsumed_total := !subsumed_total + !level_subsumed;
          let width = List.length survivors in
          (match frontier_log with
          | Some f ->
              f ~level:lvl
                (List.map (fun (idx, _) -> Arena.to_state arena idx) survivors)
          | None -> ());
          sizes := width :: !sizes;
          frontier := survivors;
          incr level;
          width
        end
      in
      let fc =
        let c = filter_counts kept in
        { scanned = c.scanned - counts0.scanned;
          calls = c.calls - counts0.calls;
          hit_scanned = c.hit_scanned - counts0.hit_scanned;
          hit_calls = c.hit_calls - counts0.hit_calls;
          backtracks = c.backtracks - counts0.backtracks;
          leaves = c.leaves - counts0.leaves }
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
      (* phase times summed over the level's chunks (0 when the phase
         did not run), the chunks filtered, and the most domains a
         filter or the settle pass used (0 when none ran) *)
      Span.add sp "expand_s" (Sink.Float !expand_s);
      Span.add sp "sign_s" (Sink.Float !sign_s);
      Span.add sp "filter_s" (Sink.Float !filter_s);
      Span.add sp "settle_s" (Sink.Float !settle_s);
      Span.add sp "chunks" (Sink.Int (List.length !settled));
      Span.add sp "filter_domains" (Sink.Int !filter_domains);
      (* the filter's work over the chunks and the settle pass (0 when
         none ran): kept reps scanned and full subsumption tests, each
         also counted over the scans that ended on a subsumer alone,
         tests that reached the permutation search, and permutations
         tested; then the arena's size *)
      Span.add sp "filter_scanned" (Sink.Int fc.scanned);
      Span.add sp "filter_calls" (Sink.Int fc.calls);
      Span.add sp "filter_hit_scanned" (Sink.Int fc.hit_scanned);
      Span.add sp "filter_hit_calls" (Sink.Int fc.hit_calls);
      Span.add sp "filter_backtracks" (Sink.Int fc.backtracks);
      Span.add sp "filter_leaves" (Sink.Int fc.leaves);
      Span.add sp "arena_bytes" (Sink.Int (Arena.bytes arena));
      (match on_level with
      | Some f when !result = None ->
          (* level lvl fully expanded and deduplicated *)
          f ~level:lvl ~frontier:surviving (mk_stats lvl)
      | Some _ | None -> ());
      (* level boundary: cut a snapshot, written on the cadence *)
      if !result = None then begin
        cut_boundary ();
        (* simulated mid-run kill: fires after the boundary write so
           every incarnation makes progress (exactly one level) *)
        if Fault.fire "kill-level" then interrupted := true;
        if cancelled () then result := Some (Interrupted (mk_stats lvl))
      end
    done;
    (* an interrupted run writes the newest boundary the cadence
       skipped, so it never loses more than the in-flight level *)
    (match !result with
    | Some (Interrupted _) -> Checkpoint.flush ckpt
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
     clear ({!State.unordered_pairs}) —
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
      let tbl = State.unordered_pairs st in
      let rec has_dead = function
        | [] -> false
        | (i, j) :: rest -> (not (State.pair_unordered tbl ~n i j)) || has_dead rest
      in
      has_dead
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
