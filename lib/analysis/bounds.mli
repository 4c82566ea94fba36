(** Approximate order-bounds abstract domain for large networks.

    Where the exact domain sweeps all [2^n] 0-1 inputs (exponential in
    [n]), this domain keeps two kinds of sound facts, each polynomial:

    - an [n * n] order matrix [R] with [R(i, j)] set only if the value
      on wire [i] is [<=] the value on wire [j] for {e every} input;
    - per-wire intervals [[lo_w, hi_w]] bounding the value rank on
      wire [w] when the input is a permutation of [0 .. n-1].

    Soundness argument (DESIGN.md has the full version): facts are
    proved over permutation inputs; every input vector is a monotone
    image of some permutation vector, and comparator networks commute
    with monotone maps (min/max do, exchanges and rewirings trivially
    do), so a proved [v_i <= v_j] holds for all inputs — in particular
    all 0-1 inputs, which makes the derived verdicts (sortedness,
    dead) agree soundly with the exact domain: the bounds domain may
    answer "don't know", never wrongly "yes".

    Transfer functions: a comparator [a <- min, b <- max] sets
    [R(a, b)], keeps [R(b, a)] only if both old directions held (the
    equal case), and propagates third-wire facts ([c <= min] needs
    [c <=] both inputs, [min <= c] needs either, dually for max);
    intervals take the pointwise min/max of the endpoints. All rules
    preserve transitive closedness of [R] when gates are applied
    level-wise, but the domain does not rely on it — queries only read
    single entries.

    Values are mutable and updated in place ([O(n)] per gate,
    [O(n^2)] per permutation level); the analyzer queries all gates of
    a level against the level-entry state before transferring any of
    them, matching the parallel gate semantics. *)

type t

val create : int -> t
(** Top: no order facts beyond reflexivity, intervals [[0, n-1]]. *)

val n : t -> int

val leq : t -> int -> int -> bool
(** [leq b i j] — is [v_i <= v_j] proved (on every input)? *)

val interval : t -> int -> int * int

val transfer_gate : t -> Gate.t -> unit

val transfer_perm : t -> Perm.t -> unit
(** Contents of wire [j] move to wire [Perm.apply p j]. *)

val sorted_proved : t -> bool
(** [R(w, w+1)] for every consecutive pair — proves the network sorts
    every input (not just 0-1). *)

val gate_dead : t -> Gate.t -> bool
(** For a comparator [lo <- min, hi <- max]: proved to never exchange,
    i.e. [leq lo hi] or the intervals are disjoint in that order. An
    exchange is never dead: distinct wires never carry equal values on
    a permutation input. *)
