(** Continuous differential fuzzing of the verification stack.

    Every sampled random genome is pushed through five independent
    oracles and any disagreement is a bug in this repository, not in
    the network:

    - {b engine vs interpreter}: the compiled bit-sliced sweep's
      unsorted count must equal a gate-by-gate {!Network.eval} count
      over all [2^n] zero-one inputs, and the engine's witness (when
      one exists) must really evaluate unsorted;
    - {b analyzer vs engine}: the exact reachable-set domain's
      sortedness verdict ({!Analysis.Sorting_proved} /
      [Sorting_refuted]) must match the engine, a refutation mask must
      be a genuinely unsorted, genuinely reachable output, and
      removing analyzer-proved dead gates must leave the network's 0-1
      behaviour bit-identical;
    - {b adversary vs engine}: a fooling-pair certificate extracted
      from the {!Naive} adversary's final pattern must validate and
      must contradict no engine "sorts" verdict;
    - {b certifier vs checker}: the analyzer's proof-carrying
      sortedness and dead-gate certificates ({!Analysis_cert}) must
      agree in kind with the engine's verdict, round-trip through the
      portable text format byte for byte, and be accepted by the
      independent {!Cert} checker;
    - {b known optima}: a network the engine certifies as sorting
      cannot be shallower than the proved minimal depth for its width
      (Bundala–Závodný, via {!Evolve.known_optimal_depth}).

    Disagreements are {!minimize}d greedily (drop comparators while
    the check still fails) into small reproducible reports carrying
    the seed and sample index. Per-genome sampling streams are carved
    from one seed with {!Xoshiro.jump}, so any single index is
    replayable without regenerating its predecessors.

    Observability: ["fuzz.networks"] and ["fuzz.disagreements"]. *)

type disagreement = {
  index : int;  (** 0-based sample index under [seed] *)
  kind : string;  (** which oracle pair disagreed *)
  detail : string;
  genome : Genome.t;  (** minimized reproducer *)
  original : Genome.t;  (** the genome as sampled *)
}

type report = {
  checked : int;
  disagreements : disagreement list;  (** in discovery order *)
  elapsed : float;  (** wall-clock seconds *)
}

val check_genome : Genome.t -> (unit, string * string) result
(** Run every oracle pair on one genome ([wires <=
    {!Analysis.default_exact_max_wires}] for the exact analyzer
    domain); [Error (kind, detail)] on the first disagreement. *)

val genome_at : seed:int -> index:int -> Genome.t
(** The [index]-th genome of the [seed] stream (width in [\[2, 8\]],
    shape in [\[1, 8\]], varied density) — the reproducer mapping for
    reports. *)

val minimize : Genome.t -> fails:(Genome.t -> bool) -> Genome.t
(** Greedy delta-debugging: repeatedly drop any single comparator
    whose removal keeps [fails] true, until none does. The result
    still fails and is 1-minimal under comparator removal. *)

val run :
  ?sink:Sink.t ->
  ?cancel:Cancel.t ->
  ?seconds:float ->
  ?count:int ->
  seed:int ->
  unit ->
  report
(** Sample, check and (on failure) minimize genomes until [count]
    genomes are checked or [seconds] of wall clock have elapsed
    (whichever comes first; at least one genome is always checked;
    default [seconds] 10, no count). The sequence of genomes, and
    hence of any disagreements, is a function of [seed] alone. *)
