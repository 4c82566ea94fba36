(** Deterministic fault injection for the crash-safety paths.

    Production code never trusts its recovery logic to luck: the
    failure modes a long search must survive — checkpoint writes that
    fail, checkpoint files torn mid-write, the process dying between
    levels — are injected on demand so tests exercise them exactly.

    Configuration comes from the [SNLB_FAULT] environment variable (or
    {!set} in tests), syntax [point\[:prob\[:seed\]\]]:

    - [point] — one of the registered injection points below;
    - [prob] — firing probability per consultation, default [1.0];
    - [seed] — seed of the private SplitMix64 stream deciding
      sub-[1.0] probabilities, default [0]; a fixed seed makes every
      probabilistic schedule reproducible.

    Points:

    - ["ckpt-write-fail"] — {!Atomic_file.write} returns [Error]
      without touching the destination;
    - ["ckpt-truncate"] — {!Atomic_file.write} publishes a file
      holding only half the intended bytes (the torn file a power
      loss between write and fsync can leave);
    - ["kill-level"] — {!Driver.run} behaves as if killed at a level
      boundary (checkpoint already flushed, run reports interrupted);
    - ["kill-block"] — {!Theorem41.run} likewise, between adversary
      blocks;
    - ["kill-gen"] — the evolutionary driver likewise, at a generation
      boundary.

    When [SNLB_FAULT] is unset the whole module is a single [ref] read
    per consultation — the fault paths cost nothing in production. An
    unparseable [SNLB_FAULT] value warns on [stderr] once and injects
    nothing (a typo must not silently change behaviour {e or} crash a
    long run). Every fired injection bumps the ["faults.injected"]
    counter so [--metrics] shows what a test run actually exercised. *)

val points : string list
(** The registered injection points. *)

val set : string option -> (unit, string) result
(** [set (Some spec)] installs a fault configuration (same syntax as
    [SNLB_FAULT]), [set None] disables injection. [Error] (and no
    configuration change) if the spec is malformed or names an
    unregistered point. Tests use this; the environment variable is
    read once, lazily, before the first consultation. *)

val active : unit -> string option
(** The configured point, if any (after consulting [SNLB_FAULT]). *)

val fire : string -> bool
(** [fire point] — should the fault at [point] trigger now? [false]
    immediately when unconfigured or configured for another point;
    otherwise decided by the configured probability and stream. *)
