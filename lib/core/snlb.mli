(** Sorting-Network Lower Bound (snlb): an executable reproduction of
    Plaxton & Suel, "A Lower Bound for Sorting Networks Based on the
    Shuffle Permutation" (SPAA 1992).

    This umbrella module re-exports the public API. A typical run of
    the headline construction:

    {[
      let it = Shuffle_net.to_iterated program in
      let result = Theorem41.run it in
      match Certificate.of_pattern result.final_pattern with
      | Some cert ->
          let nw = Iterated.to_network it in
          assert (Certificate.validate nw cert = Ok ())
      | None -> (* network was deep enough to defeat the adversary *)
    ]}

    Layers, bottom-up:
    - {!Bitops}, {!Splitmix}, {!Xoshiro}, {!Perm}: index arithmetic,
      seeded randomness, permutations (shuffle / unshuffle).
    - {!Gate}, {!Network}, {!Trace}, {!Register_model}: the two
      comparator-network models of the paper and instrumented
      evaluation.
    - {!Reverse_delta}, {!Butterfly}, {!Iterated}, {!Shuffle_net},
      {!Random_net}: Definition 3.4 and the shuffle-block
      decomposition.
    - {!Bitonic}, {!Odd_even_merge}, {!Transposition}, {!Pratt},
      {!Periodic}, {!Insertion_net}, {!Sorter_registry}: baseline
      sorting networks.
    - {!Symbol}, {!Pattern}, {!Propagate}: the pattern alphabet,
      refinement, and Definition 3.5 semantics.
    - {!Mset}, {!Lemma41}, {!Theorem41}, {!Certificate}, {!Naive},
      {!Adaptive}, {!Truncated}: the adversary.
    - {!Compiled}, {!Bitslice}, {!Cache}: the compiled evaluation
      engine (flat instruction streams, 64-lane bit-sliced 0-1
      execution, structural compile cache).
    - {!State}, {!Layers}, {!Driver}: the exact-bounds search engine
      — layered BFS with subsumption pruning for optimal depths of
      small networks.
    - {!Sortedness}, {!Zero_one}, {!Exhaustive}: verification.
    - {!Benes}: permutation routing.
    - {!Clock}, {!Metrics}, {!Sink}, {!Span}, {!Obs}: the
      observability layer — monotonic clocks, global counters and
      histograms, timed hierarchical spans, NDJSON / in-memory sinks.
    - {!Workload}, {!Stat_summary}, {!Ascii_table}: harness support. *)

module Bitops = Bitops
module Splitmix = Splitmix
module Xoshiro = Xoshiro
module Perm = Perm
module Gate = Gate
module Network = Network
module Trace = Trace
module Register_model = Register_model
module Network_io = Network_io
module Diagram = Diagram
module Reverse_delta = Reverse_delta
module Butterfly = Butterfly
module Delta_net = Delta_net
module Iterated = Iterated
module Shuffle_net = Shuffle_net
module Random_net = Random_net
module Bitonic = Bitonic
module Odd_even_merge = Odd_even_merge
module Transposition = Transposition
module Pratt = Pratt
module Periodic = Periodic
module Insertion_net = Insertion_net
module Shellsort_net = Shellsort_net
module Sorter_registry = Sorter_registry
module Symbol = Symbol
module Pattern = Pattern
module Propagate = Propagate
module Collide = Collide
module Mset = Mset
module Lemma41 = Lemma41
module Theorem41 = Theorem41
module Certificate = Certificate
module Naive = Naive
module Adaptive = Adaptive
module Truncated = Truncated
module Min_depth = Min_depth
module Sortedness = Sortedness
module Zero_one = Zero_one
module Exhaustive = Exhaustive
module Sort_depth = Sort_depth
module Benes = Benes
module Ascend = Ascend
module Prefix = Prefix
module Ntt = Ntt
module Compiled = Compiled
module Bitslice = Bitslice
module Cache = Cache
module State = State
module Layers = Layers
module Driver = Driver
module Workload = Workload
module Par = Par
module Stat_summary = Stat_summary
module Ascii_table = Ascii_table
module Clock = Clock
module Metrics = Metrics
module Sink = Sink
module Span = Span
module Obs = Obs
module Crc32 = Crc32
module Atomic_file = Atomic_file
module Fault = Fault
module Cancel = Cancel
module Checkpoint = Checkpoint
