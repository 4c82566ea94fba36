(** The generational driver: population-scale evolutionary search for
    sorting networks of a fixed depth shape.

    Plain generational GA, tuned for determinism rather than novelty:
    tournament selection with elitism, single-point level crossover,
    point mutation, and the analyzer-guided repair mutation
    ({!Genome.repair_grow}). Every random draw comes from a stream
    derived purely from [(seed, generation, slot)], so the evolved
    trajectory is a function of the seed alone — independent of
    [domains] (parallelism only touches the fitness fan-out, which is
    order-preserving) and of interruptions: a run resumed from a
    checkpoint finishes with the byte-identical final population of a
    never-interrupted run ({!population_digest} makes that testable
    from the CLI).

    Crash safety rides the PR-4 envelope: at every generation boundary
    the population is a consistent snapshot; [checkpoint:(path,
    interval)] publishes it through {!Checkpoint.write} on the given
    cadence, an interruption (cancel token or the ["kill-gen"] fault)
    flushes the newest boundary before returning, and [resume] reads
    it back, rejecting snapshots from an incompatible configuration.

    The run stops at the first generation whose best genome reaches
    {!Fitness.max_fitness} (a perfect sorter — for a depth shape set
    to the Bundala–Závodný optimum, a rediscovered depth-optimal
    network), or after [gens] generations.

    Observability: ["evolve.generations"] counts completed
    generations, ["evolve.evals"] (via {!Fitness}) genome
    evaluations; a sink receives one ["evolve/gen"] span per
    generation carrying the running best. *)

type config = {
  wires : int;
  depth : int;  (** fixed genome shape (levels) *)
  pop : int;  (** population size, >= 2 *)
  gens : int;  (** generation cap, >= 1 *)
  seed : int;
  tournament : int;  (** tournament size, >= 1 *)
  elite : int;  (** genomes copied unchanged, in [0, pop) *)
  crossover_prob : float;
  repair_prob : float;
      (** probability a child gets {!Genome.repair_grow} instead of a
          blind {!Genome.mutate} *)
  density : float;  (** initial-population comparator density *)
  domains : int;  (** fitness fan-out *)
}

val default_config : wires:int -> depth:int -> config
(** pop 256, gens 200, seed 1, tournament 3, elite 2, crossover 0.6,
    repair 0.25, density 0.9, domains 1. *)

type result = {
  best : Genome.t;
  best_fitness : int;
  found_at : int option;
      (** first generation (0-based) whose best is a perfect sorter *)
  generations : int;  (** generations fully evaluated *)
  population : Genome.t array;  (** the final population, in slot order *)
  interrupted : bool;
}

val run :
  ?sink:Sink.t ->
  ?cancel:Cancel.t ->
  ?checkpoint:string * float ->
  ?resume:bool ->
  config ->
  result
(** [resume] (default false) restarts from the snapshot at the
    checkpoint path; a missing, damaged or incompatible snapshot
    degrades to a fresh run with a [stderr] warning.
    @raise Invalid_argument on a nonsensical config. *)

val population_digest : Genome.t array -> string
(** CRC-32 (hex) over the canonical serialization of every genome in
    slot order — equal digests mean byte-identical populations. *)

(** {1 Segments — the island-model building block}

    {!Islands} runs each island's epoch as one {!run_segment} call on
    its own domain. Because every draw is keyed by the {e absolute}
    generation index, running [gens] generations as one segment or as
    chained epochs (threading the population through) produces
    byte-identical populations. *)

val better : int * int * int -> int * int * int -> bool
(** [better (f1, s1, i1) (f2, s2, i2)] — the driver's deterministic
    total order on (fitness, genome size, slot): fitter first, then
    fewer comparators, then the lower slot/island index. Exposed so
    the island merge ranks champions with the same rule. *)

val initial_population : config -> Genome.t array
(** The deterministic generation-0 population {!run} starts from when
    not resuming (one splittable stream per slot off the seed).
    @raise Invalid_argument on a nonsensical config. *)

type segment = {
  seg_population : Genome.t array;
      (** after the segment: bred from the last evaluated generation,
          or the evaluated population itself if it contains a perfect
          sorter *)
  seg_found_at : int option;  (** absolute generation of a perfect sorter *)
  seg_best_fitness : int;
  seg_best_size : int;
  seg_best : Genome.t;  (** champion over the segment's generations *)
  seg_generations : int;  (** generations evaluated ([<= gens] on a find) *)
}

val run_segment :
  ?sink:Sink.t ->
  ?cancel:Cancel.t ->
  config ->
  start_gen:int ->
  gens:int ->
  Genome.t array ->
  segment
(** [run_segment cfg ~start_gen ~gens pop] evaluates and breeds
    generations [start_gen .. start_gen + gens - 1] from [pop] —
    {!run}'s inner loop with no checkpointing or fault hooks (the
    caller owns those), stopping early at a perfect sorter exactly as
    {!run} does. When [cancel] trips, the segment stops after the
    current generation; the caller tells such a cut-short segment
    from a complete one by the token.
    @raise Invalid_argument on a nonsensical config, [gens < 1],
    [start_gen < 0], or a population sized other than [cfg.pop]. *)

val known_optimal_depth : int -> int option
(** The proved minimal sorting-network depth for [2 <= n <= 16]
    (Knuth 5.3.4 for small [n]; Bundala–Závodný, LATA 2014, for
    [n <= 16]); [None] outside that range. The fuzzer's oracle and the
    CLI's "matches the known optimum" report. *)
