(** Canonical response cache for verify verdicts, with the bounded
    second-chance eviction policy of {!Cache} (hits mark entries used;
    a full cache evicts the first cold entry, so hot entries survive
    the bound). Domain- and thread-safe (one mutex).

    Keys come from {!key}: wire-permutation {e canonical} for standard
    networks — no pre permutations, no exchanges, every comparator
    ascending — so isomorphic submissions share one entry, and exact
    {e structural} for everything else. The canonical form is
    {!canonical_masks} of the network's 0-1 reachable set. The restriction is a soundness
    requirement, not an optimisation: for standard networks "sorts"
    is a property of the canonical reachable set (the thresholds are
    fixed points, so sorting means the reachable set {e is} the
    threshold set, and that is preserved by relabeling); a
    non-standard network can share a canonical form with a sorter yet
    not sort. Keys are full canonical strings, not hashes — two keys
    are equal exactly when the forms are, so a hash collision can
    never smuggle a wrong verdict.

    Hits, misses and evictions are recorded in the global
    {!Obs.Metrics} registry ([serve.cache.*]). *)

type entry = {
  sorts : bool;
  witness : int array option;
      (** a failing 0-1 input when [not sorts]. Witnesses belong to
          the concrete network, not its isomorphism class: reuse one
          only when [skey] matches the requesting network's
          structural key. *)
  skey : string;  (** structural key of the network that produced it *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 512. @raise Invalid_argument if < 1. *)

val find : t -> string -> entry option
(** Counted lookup: records a [serve.cache] hit or miss and marks a
    found entry recently used. *)

val peek : t -> string -> entry option
(** Uncounted lookup (no metrics, no used-bit): for re-checks by the
    batch worker after the session already paid the miss. *)

val add : t -> string -> entry -> unit

val entries : t -> int

val is_standard : Network.t -> bool
(** No pre permutations, no exchanges, every comparator [lo < hi]. *)

val structural_key : Network.t -> string
(** Exact textual form — equal exactly for identical networks. *)

val canonical_masks : n:int -> int array -> int array
(** [canonical_masks ~n masks]: a distinguished image, sorted ascending,
    of the set [masks] of [n]-bit masks (duplicate-free) under a wire
    permutation. Channels are classed by their per-level ones
    histograms, and the lexicographically smallest image over
    class-respecting permutations wins. Equal forms always imply that
    some permutation carries one set onto the other; the converse holds
    whenever the product of class factorials fits an internal cap, and
    beyond it the form is a fixed class-ordered image, losing sharing
    but never soundness. *)

val reachable_masks : Network.t -> int array
(** The 0-1 reachable set of a standard network of 2–16 wires — the
    outputs of all [2^wires] 0-1 inputs — ascending and duplicate-free.
    It is the final row of {!Maskset.walk}, one {!Maskset.apply_cmp}
    per comparator on a single row of [2^wires / 64] words: no
    compile, no [2^wires]-entry arrays.
    @raise Invalid_argument on any other network. *)

val key : Network.t -> string
(** Canonical key for standard networks of 2–16 wires: ["c:"], the
    width, then [':']-separated the {!canonical_masks} of
    {!reachable_masks} (isomorphic networks collide, by design; equal
    keys mean equal forms, never a hash collision); {!structural_key}
    otherwise. Neither compiles the network or runs the bit-sliced
    engine, so a verify answered from the cache never compiles. *)
