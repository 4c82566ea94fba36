(** Minimal multicore fan-out for the embarrassingly parallel parts of
    the library (OCaml 5 domains, no external dependencies).

    Used by {!Zero_one} to split exact 0-1 verification across
    test-input ranges, by the experiment harness for independent
    sampling legs, by the evolutionary fitness kernel and island
    model, and by the search driver's signature pass and subsumption
    filter.
    {!map_ranges} and {!map_list} split work into contiguous chunks,
    one domain per chunk; {!iter_chunks} hands out small chunks from
    an atomic cursor for work whose cost varies along the range.
    Domains never share mutable state, so no synchronisation beyond
    [join] (and that cursor) is needed. *)

val default_cap : int
(** 8 — the ceiling of the {e heuristic} default below. *)

val clamp_max : int
(** 64 — the ceiling an explicit [SNLB_DOMAINS] is clamped to. *)

val recommended_domains : unit -> int
(** [max 1 (cpu count - 1)], capped at {!default_cap} (8); the extra
    domains beyond the chunk count are never spawned. The
    [SNLB_DOMAINS] environment variable overrides the heuristic with a
    fixed count, clamped to [\[1, {!clamp_max}\]] (64) — CI and
    benchmarks use it to pin parallelism deterministically.

    Note the deliberate asymmetry: the {e default} never exceeds 8 even
    on a 64-core box (fan-out past 8 domains has shown no wins on the
    library's workloads, and idle-core stealing hurts co-tenants),
    while an {e explicit} [SNLB_DOMAINS] is trusted up to 64. Callers
    that report parallelism (the CLI's [--metrics], the bench JSON
    rows) should record both the chosen count and {!default_cap} so a
    row measured on a big machine is not misread as using every core —
    see the [par.domains] / [par.domains.default_cap] counters.

    An out-of-range or non-integer value is never silently honoured:
    it triggers a one-line [stderr] warning naming the bad value before
    clamping (respectively falling back to the heuristic). An empty or
    all-whitespace value means "unset" and is ignored without a
    warning. *)

val map_ranges :
  domains:int -> lo:int -> hi:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [map_ranges ~domains ~lo ~hi f] partitions [\[lo, hi)] into at most
    [domains] contiguous chunks and evaluates [f] on each chunk in its
    own domain (the first chunk runs on the calling domain). Results
    come back in range order. [f] must not touch mutable state shared
    with the other chunks. With [domains <= 1] everything runs inline.

    Exception safety: every spawned domain is joined before the call
    returns, {e including} when a chunk raises — a raise in the
    calling-domain chunk no longer leaks running domains (they are
    joined under [Fun.protect]), and a raise in any chunk is re-raised
    (first failing chunk in range order, original backtrace) only after
    all chunks have been joined, so no work is left in flight.
    @raise Invalid_argument if [lo > hi] or [domains < 1]. *)

val iter_chunks :
  domains:int ->
  chunk:int ->
  lo:int ->
  hi:int ->
  (worker:int -> lo:int -> hi:int -> unit) ->
  int
(** [iter_chunks ~domains ~chunk ~lo ~hi f] cuts [\[lo, hi)] into
    consecutive chunks of [chunk] indices (the last may be shorter) and
    hands them out dynamically: each of up to [domains] workers claims
    the next unclaimed chunk from a shared atomic cursor and calls
    [f ~worker ~lo ~hi] on it, so workers whose chunks run cheap take
    more of them — the balance contiguous {!map_ranges} halves lack
    when per-index cost grows along the range. [worker] is in
    [\[0, result)] and names the domain running the call (worker [0]
    is the calling domain), so [f] can pick per-domain scratch.

    Returns the number of workers that ran: [min domains chunks], and
    [1] when the range fits one chunk (or is empty), in which case [f]
    runs once inline over the whole range with no spawn. [f] must not
    touch mutable state shared with other calls except at indices
    private to its own chunk.

    Exception safety is {!map_ranges}': every spawned domain is joined
    before the call returns; once any call raises, no worker claims
    another chunk, and the failure of the lowest-numbered failing
    worker is re-raised with its original backtrace.
    @raise Invalid_argument if [lo > hi], [domains < 1] or
    [chunk < 1]. *)

val map_list :
  ?min_per_domain:int -> domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ~domains f xs] maps [f] over [xs] with up to [domains]
    concurrent domains, preserving order. [min_per_domain] (default 1)
    is a work-size threshold: the fan-out is capped at
    [length xs / min_per_domain] domains, so a list too small to feed
    every domain that many elements runs on fewer domains — or fully
    sequentially — instead of paying a spawn per handful of elements.
    Callers whose per-element work is small relative to a domain spawn
    should pass a threshold; [1] always fans out.
    @raise Invalid_argument if [domains < 1] or [min_per_domain < 1]. *)
