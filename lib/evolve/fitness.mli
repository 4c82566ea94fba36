(** The batch fitness kernel: sorted-0-1-input counts at population
    scale.

    Fitness of a genome is the number of the [2^wires] zero-one test
    inputs its network sorts (the 0-1 principle makes [2^wires] the
    whole truth); a genome is a perfect sorter iff its fitness is
    {!max_fitness}. Each evaluation is one compile plus a bit-sliced
    sweep ({!Bitslice.count_sorted_range}); whole populations fan out
    across OCaml 5 domains via {!Par.map_list} over (genome, input
    subrange) work units — when a handful of wide genomes could not
    otherwise feed every domain, each genome's [2^wires] sweep splits
    into subranges whose exact counts are summed back per genome — so
    evaluating millions of genomes is the engine's sustained-throughput
    story (the [BENCH_evolve.json] rows assert nets/s).

    Observability: every genome evaluated bumps ["evolve.evals"]. *)

val max_fitness : wires:int -> int
(** [2 ^ wires]. @raise Invalid_argument if [wires] is outside
    [\[2, 24\]] (the sweep is exponential). *)

val compiled : Compiled.t -> int
(** Fitness of an already-compiled network. *)

val genome : Genome.t -> int
(** Compile and sweep one genome. *)

val population : ?domains:int -> Genome.t array -> int array
(** [population gs] is the fitness of every genome, in order;
    [domains] (default 1) splits the (genome, subrange) work units
    across domains (a work-size threshold keeps small populations of
    narrow genomes sequential). The result is independent of
    [domains]. *)
