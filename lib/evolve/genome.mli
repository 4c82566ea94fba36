(** Comparator networks as fixed-shape genomes.

    A genome on [wires] channels is a fixed number of levels (the depth
    shape the evolution searches within); each level is a set of
    comparator pairs on pairwise disjoint channels, kept sorted by
    lower channel so every genome has exactly one representation — the
    serialized form is canonical, populations can be digested for
    byte-identical resume checks, and operators that rebuild a level
    cannot smuggle in order-dependent behaviour.

    All stochastic operators draw from an explicit {!Xoshiro.t}, so a
    population evolved from a seed is reproducible bit for bit; the
    repair operator is the analyzer-guided one of ROADMAP item 4 —
    dead comparators (proved by {!Analysis} to never exchange on any
    reachable 0-1 input) are removed rather than blindly mutated. *)

type t = private {
  wires : int;
  levels : (int * int) array array;
      (** [levels.(l)] is level [l]'s comparator pairs [(lo, hi)],
          [lo < hi], pairwise channel-disjoint, sorted by [lo] *)
}

val create : wires:int -> (int * int) array array -> t
(** Validate and normalize (orient pairs low-high, sort each level).
    @raise Invalid_argument on a channel out of [0, wires), a
    self-compare, or a channel used twice in one level. *)

val wires : t -> int

val shape : t -> int
(** Number of levels, including comparator-free ones — the fixed depth
    shape. [Network.depth] of {!to_network} can be smaller. *)

val size : t -> int
(** Total comparator count. *)

val equal : t -> t -> bool

val to_network : t -> Network.t
(** The circuit-model network: level [l]'s pairs as {!Gate.compare_up}
    gates, empty levels preserved (so {!Analysis} gate references map
    back to genome slots index-for-index). *)

val random : Xoshiro.t -> wires:int -> depth:int -> ?density:float -> unit -> t
(** [random rng ~wires ~depth ()] draws each level as a random
    matching: channels are shuffled, adjacent pairs kept with
    probability [density] (default [0.9]).
    @raise Invalid_argument if [wires < 2] or [depth < 0]. *)

(** {1 Variation operators}

    Every operator returns a genome of the same wires and shape, and
    preserves validity (tested by QCheck properties). *)

val mutate : Xoshiro.t -> t -> t
(** One random point mutation, drawn uniformly from the applicable
    subset of: {e rewire} (move one endpoint of one comparator to a
    free channel of its level), {e add} (a comparator on two free
    channels of one level), {e remove} (drop one comparator). On the
    degenerate genome where nothing applies, the identity. *)

val crossover : Xoshiro.t -> t -> t -> t
(** Single-point level crossover: levels [0, k) from the first parent,
    [k, depth) from the second, [k] uniform in [1, depth).
    @raise Invalid_argument if wires or shapes differ. *)

val repair : t -> t
(** Analyzer-guided repair: remove every comparator {!Analysis} proves
    dead (never exchanges on any reachable 0-1 input — removal is
    extensionally sound). Since removing a dead comparator changes no
    reachable value anywhere, repair never {e introduces} a dead
    comparator: the repaired genome analyzes dead-free (the QCheck
    property). Genomes wider than the exact-domain cutoff
    ({!Analysis.default_exact_max_wires}) are returned unchanged. *)

val repair_grow : Xoshiro.t -> t -> t
(** {!repair}, then refill: each level that lost comparators gets
    fresh random ones on its free channels — the repair {e mutation}
    used by the evolutionary driver (replace provably useless gates
    with new genetic material instead of blind point mutation). *)

(** {1 Serialization}

    Canonical text, one genome per call: first line [wires depth],
    then one line per level of space-separated [lo,hi] pairs (empty
    line for an empty level). Stable across versions — checkpoint
    payloads and fuzzer repro reports are built from it. *)

val to_string : t -> string

val of_string : string -> (t, string) result
