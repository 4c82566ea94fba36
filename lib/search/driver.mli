(** Layered breadth-first search for exact small-network bounds, with
    frontier deduplication, pluggable move generation, a node/time
    budget, multicore subsumption filtering, and built-in
    observability.

    The driver is generic over the move type ['m] so that both the
    general sorting-network search (moves = comparator layers, frontier
    deduplicated by subsumption) and the shuffle-restricted register
    search of {!Min_depth} (moves = op vectors, frontier deduplicated
    by state equality — channel permutations do not commute with the
    fixed shuffle, so subsumption would be unsound there) are thin
    instantiations. Either kind of move is staged on the packed
    {!Arena}: a comparator layer as directed comparators, a shuffle
    stage as a permutation of mask-index bits followed by them.

    Level [k] of the BFS holds representatives of every state reachable
    by a [k]-move prefix. Each level expands every frontier entry by
    every move; a child that is sorted resolves the search immediately
    (its move list is the witness), a child failing the system's
    [prune] test, equal to a state already seen, or subsumed by a
    representative already kept (at this or any earlier level — these
    reductions preserve at least one depth-optimal witness) is
    dropped. The search is exhaustive up to those reductions, so
    [Unsorted] is a proof that no [max_depth]-move prefix sorts, and
    the first level at which a sorted child appears is the exact
    optimum.

    Each level expands sequentially on the calling domain. With
    subsumption, the expansion stops at the first parent boundary
    after every 16,384 fresh children (a constant, never tied to
    [domains]); that chunk is signed, filtered against every
    representative kept so far, and its losing rows are dropped from
    the arena ({!Arena.retain}). When the level's parents are done, a
    settle pass re-filters the chunks' survivors against each other in
    stable cardinality order. The result is the frontier a single
    filter over the whole level keeps, state for state and in the same
    order: both keep the earliest-committed member of every
    subsumption-minimal class of the level's children that no earlier
    level dominates. The arena so holds every representative ever
    kept plus about one chunk, not every child ever made. The
    signature pass, the filter and the settle pass fan out over
    [domains] ({!Par.iter_chunks}) and decide exactly as on one
    domain, so every output is identical at every domain count.

    Observability: a run wrapped around an {!Obs.Sink} emits one
    ["span"] event per level (path ["search/level"]) whose [nodes] /
    [pruned] / [deduped] / [subsumed] fields are per-level deltas —
    summing them over all level events reproduces the final {!stats}
    exactly — plus a closing ["search"] event with the totals. Each
    level event also carries [expand_s], [sign_s] and [filter_s], the
    wall seconds of its phases summed over its chunks, [settle_s], the
    settle pass's (0 for a phase that did not run; together at most
    the level's [wall_s]), [chunks], the number of chunks filtered,
    and [filter_domains], the most domains a filter or the settle pass
    used (1 below the fan-out threshold, 0 when none ran). Each
    filtered chunk emits a ["progress"] event (name ["search/chunk"])
    with its [level], the [parents] of the level expanded so far, its
    [candidates] and [survivors], and [arena_bytes], so a run stopped
    mid-level still shows how far the level got. The phase clocks are
    read, and chunk events built, only when the sink is enabled. The
    [on_level] callback delivers live cumulative stats after each
    completed level. Both cost nothing when absent.

    Crash safety: with [~checkpoint:(path, interval)] the driver cuts
    a snapshot of its whole loop state at every level boundary (the
    only points where that state is a consistent prefix of the search)
    and hands it to a {!Checkpoint.writer}, which writes it once
    [interval] seconds have passed since the last write or the start
    of the run ([0.] = every boundary). A boundary the cadence skips
    costs a closure, not a serialization. A run interrupted by a
    {!Cancel} token, a signal handler tripping one, or an injected
    ["kill-level"] {!Fault} returns [Interrupted] after writing the
    newest unwritten boundary, after rolling the in-flight level's
    rows and representatives back. [~resume:true] reads the snapshot
    at [path] back through {!Checkpoint.resume}, checking its kind
    (["snlb-search-driver-4"]) and its keys: the move tag, [n],
    [max_depth] and the dedup mode. A snapshot that passes prints
    [snlb: resuming <tag> search, n=<n>, max_depth=<d>, next level
    <l>] to [stderr], and the run continues from that boundary with
    identical frontier, dedup memory, counters and already-spent
    budget, so the eventual outcome, witness and cumulative node
    counts are exactly those of a never-interrupted run. Any other
    snapshot degrades to a fresh run with the contract's one
    [snlb: cannot resume (<reason>); starting fresh] line. *)

type budget = { max_nodes : int; max_seconds : float option }
(** [max_nodes] bounds move applications (edges explored);
    [max_seconds] optionally bounds {e wall-clock} time
    ({!Obs.Clock.wall}), so a budget means the same seconds at any
    [domains] count. (Earlier versions metered [Sys.time], which sums
    CPU over domains and tripped [domains]x too early.) *)

val default_budget : budget
(** 200 million nodes, no time cap. *)

type stats = {
  nodes : int;  (** move applications performed *)
  pruned : int;  (** children dropped by the system's prune test *)
  deduped : int;
      (** children dropped as equal to a state in the dedup memory: with
          equality dedup every state seen, with subsumption the
          representatives kept and the rows of the chunk being
          expanded. A child equal to a row the filter dropped is
          dropped by that row's subsumer instead, and counted in
          [subsumed]; the sum of the two does not depend on it. *)
  subsumed : int;  (** children dropped by subsumption *)
  redundant : int;
      (** moves skipped before application by the system's
          [redundant_of] static-analysis hook (never counted in
          [nodes]) *)
  frontier_sizes : int list;  (** surviving frontier per completed level *)
  peak_frontier : int;
  completed_levels : int;
      (** levels fully expanded and deduplicated; on [Inconclusive],
          depths up to this value are exhaustively refuted *)
  elapsed : float;  (** wall-clock seconds *)
  elapsed_cpu : float;
      (** CPU seconds, summed over domains (>= [elapsed] on multicore
          runs when cores are busy) *)
}

type 'm outcome =
  | Sorted of { depth : int; moves : 'm list; stats : stats }
      (** a sorting prefix exists; [moves] (in application order) is a
          witness of the {e minimal} length [depth <= max_depth] *)
  | Unsorted of stats
      (** no prefix of up to [max_depth] moves sorts (exhaustive) *)
  | Inconclusive of stats  (** budget exhausted first *)
  | Interrupted of stats
      (** cancelled (token, signal, or injected kill) before a
          verdict; [completed_levels] depths are still exhaustively
          refuted, and a configured checkpoint holds the last
          completed boundary for [~resume:true] *)

type dedup = Equal | Subsume

type 'm system = {
  n : int;
  tag : string;
      (** names the move type for checkpoint compatibility (e.g.
          ["layers"], ["shuffle-ops"]); a snapshot only resumes into a
          system with the same tag *)
  initial : State.t;
  moves_at : level:int -> 'm list;
      (** moves available for the layer at 1-based [level] *)
  stage : Arena.t -> parent:int -> 'm -> unit;
      (** [stage arena ~parent m] writes the image of committed row
          [parent] under move [m] into the arena's staging row, through
          {!Arena.stage_child} *)
  prune : level:int -> remaining:int -> State.t -> bool;
      (** sound necessary-condition filter: [true] only if the state
          cannot reach a sorted state within [remaining] more moves *)
  redundant_of : level:int -> State.t -> 'm -> bool;
      (** static-analysis move filter, consulted {e before} a move is
          staged: [true] only if some other available move (or the
          already-represented parent) provably reaches the same child,
          so skipping the move preserves a depth-optimal witness. The
          driver partially applies [redundant_of ~level st] once per
          expanded state — implementations amortize per-state work
          (e.g. a reachable-set scan) in that closure. Skips are
          counted in [stats.redundant] and the
          ["analysis.redundant_moves"] metric, not in [nodes]. *)
  dedup : dedup;
}

val no_prune : level:int -> remaining:int -> State.t -> bool
val no_redundant : level:int -> State.t -> 'a -> bool

val run :
  ?domains:int ->
  ?budget:budget ->
  ?sink:Sink.t ->
  ?on_level:(level:int -> frontier:int -> stats -> unit) ->
  ?frontier_log:(level:int -> State.t list -> unit) ->
  ?cancel:Cancel.t ->
  ?checkpoint:string * float ->
  ?resume:bool ->
  max_depth:int ->
  'm system ->
  'm outcome
(** [run ~max_depth sys] searches prefixes of up to [max_depth] moves.
    Each level expands on the calling domain, then fans its signature
    passes, subsumption filters and settle pass out over [domains]
    (default 1, clamped to [\[1, {!Par.clamp_max}\]]): a chunk's
    filter tests fixed-size batches of candidates on every domain
    against the representatives kept before the batch, then settles
    each batch in order, so the output — outcome, witness, stats,
    frontier log, checkpoints — is identical at every domain count.
    Small chunks stay on one domain.
    [sink] (default {!Sink.null}) receives the per-level and closing
    span events; [on_level ~level ~frontier stats] fires after each
    {e completed} level with the surviving frontier size and a
    cumulative stats snapshot. [frontier_log ~level states] receives
    each completed level's surviving states in frontier order — the
    feed certificate emitters consume. [cancel] is polled before each
    frontier entry is expanded and at level boundaries; once tripped
    the run returns [Interrupted]. [checkpoint:(path, interval)]
    snapshots progress at level boundaries at most every [interval]
    seconds, and [resume] (default [false]) continues from such a
    snapshot (see the module preamble). *)

(** {1 Sorting-network instantiation} *)

type layer = Layers.layer

val network_system : ?restrict:bool -> n:int -> unit -> layer system
(** The general optimal-depth search on [n] wires. Both modes fix the
    canonical maximal first layer (Parberry; Bundala–Závodný Lemma 3 —
    justified independently of any frontier reduction). With [restrict]
    (default [true]) levels 2+ additionally use second layers up to
    first-layer symmetry and subsumption deduplication, and levels 3+
    consult the static-analysis [redundant_of] hook: a layer holding a
    comparator that never fires on the state's reachable 0-1 set
    ({!State.unordered_pairs}) is skipped, because [Layers.all]
    contains the same layer without it — same child, one comparator
    cheaper. With [~restrict:false] they use every layer, equality-only
    deduplication and no analysis hook — the slow exhaustive reference
    the pruned search is validated against.
    @raise Invalid_argument unless [2 <= n <= 10]. *)

val optimal_depth :
  ?domains:int -> ?budget:budget -> ?sink:Sink.t ->
  ?on_level:(level:int -> frontier:int -> stats -> unit) ->
  ?frontier_log:(level:int -> State.t list -> unit) ->
  ?cancel:Cancel.t -> ?checkpoint:string * float -> ?resume:bool ->
  ?restrict:bool -> ?max_depth:int ->
  n:int -> unit -> layer outcome
(** [optimal_depth ~n ()] certifies the exact minimal depth of a
    sorting network on [n] wires (for [Sorted], [depth] is optimal and
    [moves] a witness). [max_depth] defaults to [n], an upper bound by
    odd-even transposition sort. *)

val witness_network : n:int -> layer list -> Network.t
(** The witness as a circuit-model network, one level per layer. *)

val verify_witness : n:int -> layer list -> bool
(** Checks a witness on all [2^n] zero-one inputs through the compiled
    engine ({!Cache} + {!Bitslice}) — independent of the searcher's
    own state arithmetic. *)
