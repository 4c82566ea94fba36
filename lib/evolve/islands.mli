(** Island-model evolutionary search on domains.

    [islands] independent populations, each of [cfg.pop] genomes,
    evolve from their own seeds ([cfg.seed] for island 0,
    deterministic offsets after) and synchronise every [epoch]
    generations at a barrier where (1) a perfect sorter on any island
    stops the run and (2) otherwise each island's first [migrants]
    slots overwrite the {e last} [migrants] slots of its right
    neighbour on the ring. The first slots are the elite head while
    [migrants <= cfg.elite].

    Each epoch runs every island's {!Evolve.run_segment} at once, one
    domain per island (at most [Par.clamp_max / cfg.domains] at a
    time), and each island's fitness sweep fans out over
    [cfg.domains]. Segments are pure functions of
    [(config, start_gen, population)] and every {!Genome} operator
    copies, so the outcome is independent of the fan-out. With
    [islands = 1] the trajectory equals {!Evolve.run} on the same
    config.

    The champion is compared across islands by (fitness, size, island
    index) with {!Evolve}'s deterministic order; a find reports the
    earliest (generation, island) pair.

    Observability: counters ["evolve.islands.epochs"] and
    ["evolve.islands.migrations"]; a sink receives one
    ["evolve/island"] span per island per epoch (fields [island],
    [epoch]) with that segment's ["evolve/gen"] spans nested inside. *)

type t = {
  found : (int * int) option;
      (** earliest (absolute generation, island) evolving a perfect
          sorter, by (generation, island) order *)
  best : Genome.t;
  best_fitness : int;
  best_size : int;
  generations : int;
      (** absolute generations evaluated per island when the run
          stopped *)
  epochs_run : int;  (** completed synchronisation rounds *)
  populations : Genome.t array array;  (** final population per island *)
  interrupted : bool;  (** cancel tripped; state is the last barrier *)
}

val run :
  ?sink:Sink.t ->
  ?cancel:Cancel.t ->
  islands:int ->
  epoch:int ->
  migrants:int ->
  Evolve.config ->
  t
(** [run ~islands ~epoch ~migrants cfg] evolves [islands] populations
    for up to [cfg.gens] total generations each, in epochs of [epoch]
    generations. When [cancel] trips, every island stops after its
    current generation and the run returns the last barrier's state.
    @raise Invalid_argument unless [islands >= 1], [epoch >= 1],
    [0 <= migrants <= cfg.pop / 2], and [cfg] validates. *)
