(** Process-sharded exact-depth search (ROADMAP item 1(c)).

    Runs {!Driver}'s layered BFS with each level's frontier expansion
    partitioned into [shards] contiguous slices, every slice expanded
    in a forked worker under the {!Shard} supervisor, and the per-level
    results merged by the coordinator with {e the same} decision
    procedure the in-process search uses — so the outcome, witness,
    and every decision statistic ([nodes] / [pruned] / [deduped] /
    [subsumed] / [redundant] / [frontier_sizes] / [completed_levels])
    are identical to [Driver.run] on the same system, even
    when every worker attempt is killed, stalled, or corrupted once
    ({!Fault} ["kill-worker"] / ["stall-worker"] / ["corrupt-result"]:
    the supervisor retries and the merge is idempotent).

    How identity is preserved: workers expand their slice {e without}
    global budget checks and return per-entry records (sorted-witness,
    unpruned children in staging order, prune/redundant/live-move
    tallies). A worker stages children on its own {!Arena}, where it
    commits only the parents. The coordinator replays the sequential
    semantics over the records in global entry order: nodes are
    charged per entry and the budget consulted before the entry's
    other tallies count, and a found witness stops the scan so later
    entries contribute nothing. It then commits the children into its
    one arena in that order (a duplicate is an equality-deduped child)
    and runs the greedy subsumption filter ({!Driver.subsume_filter})
    exactly as in-process, on one domain: the coordinator forks
    workers at every level, and OCaml 5 forbids [Unix.fork] once a
    domain has been spawned.

    Known divergences from [Driver.run], by design: [budget.max_seconds]
    is only consulted at level boundaries (a wall-clock budget is
    inherently racy; node budgets merge identically), workers expand
    their whole slice even when another slice already tripped the node
    budget (the merge discards the excess, so only wasted work — never
    a different decision), and an [Interrupted] outcome reports the
    last {e completed} level (partial-level tallies of a mid-level
    cancel are not reproduced). [stats.elapsed_cpu] covers the
    coordinator only.

    Why processes rather than domains: forked workers own a private
    heap and GC and die independently — a crash, stall, or OOM in one
    slice costs one retried unit, not the run — which is what lets the
    n=9–10 regime (hour-scale frontiers) run unattended. On multi-core
    hosts the slices also parallelise without sharing a runtime; on a
    single core the supervisor adds only a few ms per level. *)

val run :
  ?sink:Sink.t ->
  ?cancel:Cancel.t ->
  ?budget:Driver.budget ->
  ?config:Shard.config ->
  shards:int ->
  dir:string ->
  max_depth:int ->
  'm Driver.system ->
  ('m Driver.outcome, string) result
(** [run ~shards ~dir ~max_depth sys] searches like
    [Driver.run ~max_depth sys] with per-level expansion fanned out
    over [shards] worker processes ([config] defaults to
    [Shard.default_config ~dir] with [workers = shards]; a [config]
    argument's [workers] field is overridden by [shards], its [dir] by
    [dir]). The move type ['m] must be marshal-safe (plain data, as
    all in-tree systems are) — slices cross the process boundary as
    {!Checkpoint} envelopes. [Error] when the supervisor quarantines a
    poison slice after [config.max_attempts] failed attempts.
    @raise Invalid_argument unless [shards >= 1]. *)
