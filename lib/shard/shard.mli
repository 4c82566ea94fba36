(** Fault-tolerant multi-process work-unit supervisor.

    The coordinator pattern behind island-model evolve
    ([snlb evolve --islands]): a parent process forks a pool of workers
    over a queue of work units, where every hop between processes is a
    CRC-checked {!Checkpoint} envelope published atomically
    ({!Atomic_file}).
    Delivery is at-least-once and merges are idempotent: a unit may
    run twice (crash after publish, retry after a torn result), but
    because results are complete-or-absent and keyed by unit id, the
    merge of the survivors is identical no matter how many attempts it
    took.

    On-disk layout, all inside [config.dir]:

    - [unit-<id>.ck] — the unit envelope, kind [<kind>-unit], meta
      [("unit", id)], written by the supervisor before any fork;
    - [result-<id>.ck] — the result envelope, kind [<kind>-result],
      published atomically by the worker as its last act;
    - [hb-<id>] — the heartbeat file, mtime refreshed by the worker on
      a SIGALRM interval timer while it computes.

    Failure model (every path deterministically testable via
    {!Fault}'s ["kill-worker"] / ["stall-worker"] / ["corrupt-result"]
    points, which sabotage a unit's {e first} attempt only):

    - {b crash} — nonzero exit or signal death is observed by a
      non-blocking [waitpid] reap (no zombies survive the run) and
      counts as a unit failure;
    - {b stall} — a worker whose heartbeat goes stale past
      [heartbeat_timeout] is SIGKILLed, reaped, and counts as a unit
      failure;
    - {b corruption} — a result that fails the envelope CRC / kind /
      unit-id validation counts as a unit failure (the torn file is
      discarded);
    - {b retry} — a failed unit re-queues with capped exponential
      backoff ([backoff_base] · 2{^attempt-1}, capped at
      [backoff_cap]) until [max_attempts] total attempts, after which
      it is {b quarantined} and the run reports it instead of looping
      forever on a poison unit;
    - {b degradation} — when every live worker keeps dying
      (2 · pool-size consecutive failures), the pool shrinks by one,
      down to a floor of one worker; the scheduler never deadlocks —
      each loop iteration either spawns, reaps, or sleeps one poll
      tick, and the unit set is finite;
    - {b drain} — when [cancel] trips (the CLI wires SIGINT/SIGTERM
      to it), every live worker is SIGTERMed, given [grace] seconds,
      SIGKILLed if still alive, and reaped before [`Cancelled]
      returns.

    Observability: counters ["shard.spawned"], ["shard.completed"],
    ["shard.retries"], ["shard.crashed"], ["shard.stalled"],
    ["shard.quarantined"], ["shard.pool_shrunk"]; one ["shard"] event
    per unit attempt on the sink with unit id, attempt number, status
    and duration. *)

type config = {
  workers : int;  (** initial pool size (>= 1) *)
  dir : string;  (** scratch directory for envelopes and heartbeats *)
  max_attempts : int;  (** total attempts before quarantine (>= 1) *)
  backoff_base : float;  (** first retry delay, seconds *)
  backoff_cap : float;  (** retry delay ceiling, seconds *)
  heartbeat_interval : float;  (** worker heartbeat period, seconds *)
  heartbeat_timeout : float;  (** staleness threshold, seconds *)
  grace : float;  (** SIGTERM-to-SIGKILL window on drain, seconds *)
  poll_interval : float;  (** supervisor scheduling tick, seconds *)
}

val default_config : dir:string -> config
(** 4 workers, 3 attempts, 50 ms base / 2 s cap backoff, 0.5 s
    heartbeats with a 10 s staleness timeout, 0.5 s drain grace,
    2 ms poll tick. *)

type outcome =
  | Completed of (string * string) list
      (** every unit succeeded; [(id, result payload)] in submission
          order *)
  | Quarantined of string list
      (** these unit ids exhausted [max_attempts]; remaining units
          were still driven to completion before returning *)
  | Cancelled
      (** the cancel token tripped; the pool has been drained and
          reaped *)

val run :
  ?sink:Sink.t ->
  ?cancel:Cancel.t ->
  config ->
  kind:string ->
  units:(string * string) list ->
  worker:(id:string -> payload:string -> string) ->
  outcome
(** [run config ~kind ~units ~worker] writes one [<kind>-unit]
    envelope per [(id, payload)] unit, forks up to [config.workers]
    workers, each of which runs [worker ~id ~payload] (the closure
    crosses the fork, so it captures whatever state the caller built)
    and publishes the returned string as the unit's [<kind>-result]
    envelope, and supervises to one of the three outcomes above.

    Unit ids must be non-empty, unique, and filename-safe
    ([A-Za-z0-9._-]); [Invalid_argument] otherwise. [config.dir] is
    created if missing. Envelope files are left in place on return
    (the caller owns cleanup) — re-running with the same dir simply
    overwrites them. *)
