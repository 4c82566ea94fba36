(** Word-parallel 0-1 evaluation of a compiled network.

    The 0-1 principle reduces exact sorting-network verification to the
    [2^n] inputs over {0,1}; on such inputs a comparator computes
    [(AND, OR)]. This module evaluates 64 {e independent} test inputs
    at once on a block of 64-bit rows, one row per wire (bit [j] of a
    row is that wire's value in lane [j]): a single pass over the
    compiled instruction stream makes a comparator two word operations,
    an exchange a swap of two rows, and the final output routing an
    index indirection.

    Test input [t] (an [n]-bit integer) assigns bit [(t lsr w) land 1]
    to wire [w]. A block is loaded in one of two ways:
    - a range sweep takes 64 consecutive inputs starting at a multiple
      of 64, where the low six wires are fixed columns and every higher
      wire is constant across the block — O(wires) setup, no tables;
    - a mask batch takes up to 64 arbitrary inputs and turns them into
      rows with a 64x64 bit-matrix transpose, and transposes the output
      rows back into output masks.

    Every entry point taking a compiled network raises
    [Invalid_argument] when it has 62 or more wires (test inputs are
    OCaml ints). Each call allocates its own block, so calls are safe
    from any domain or thread.

    Range sweeps compose with {!Par.map_ranges} for multicore fan-out;
    a shared {!Stdlib.Atomic} stop flag lets one domain's discovery
    short-circuit the others mid-range. *)

val lanes : int
(** Test inputs per block pass: 64. *)

val find_unsorted_range :
  ?stop:bool Atomic.t -> Compiled.t -> lo:int -> hi:int -> int option
(** [find_unsorted_range c ~lo ~hi] is [Some t] for the smallest test
    input [t] in [\[lo, hi)] that [c] leaves unsorted, or [None]. When
    [stop] is given, the sweep aborts early (returning [None]) once the
    flag becomes true, and sets the flag itself on discovery — the
    cross-domain short-circuit.
    @raise Invalid_argument if [lo < 0] or [lo > hi]. *)

val count_unsorted_range : Compiled.t -> lo:int -> hi:int -> int
(** Number of test inputs in [\[lo, hi)] left unsorted. Raises like
    {!find_unsorted_range}. *)

val count_sorted_range : Compiled.t -> lo:int -> hi:int -> int
(** [hi - lo - count_unsorted_range c ~lo ~hi]. The full-sweep fitness
    of a network is [count_sorted_range c ~lo:0 ~hi:(1 lsl wires)]. *)

val eval_masks : Compiled.t -> int array -> int array
(** [eval_masks c masks] evaluates an array of any length of
    {e arbitrary} 0-1 test inputs — mask bit [w] is the value on wire
    [w] — 64 per block pass, returning the output masks in input order
    (read through the final routing map when the source network
    permutes its outputs). Unlike the range sweeps, the inputs need not
    be consecutive: this is how the request scheduler packs unrelated
    clients' inputs into shared passes.
    @raise Invalid_argument if a mask is outside [\[0, 2^wires)]. *)

val count_sorted_masks : Compiled.t -> int array -> int
(** Number of masks whose outputs are sorted: {!eval_masks} followed by
    {!mask_sorted}, except that the verdict is read off the output rows
    as one violation word per block, with no transpose back. The
    population-fitness primitive on an explicit input sample. Raises
    like {!eval_masks}. *)

val mask_sorted : wires:int -> int -> bool
(** [mask_sorted ~wires m] is true iff the 0-1 vector encoded by [m]
    is ascending by wire index (all ones packed at the high wires) —
    the sortedness test for one {!eval_masks} output. *)

val find_unsorted : ?domains:int -> Compiled.t -> int option
(** [find_unsorted c] sweeps all [2^wires] test inputs with up to
    [domains] (default 1) domains, short-circuiting every domain on
    first discovery. With [domains = 1] the result is the smallest
    failing input; with more, some failing input. [None] means [c]
    sorts. The caller is responsible for guarding [wires] (the sweep is
    exponential). *)

val count_unsorted : ?domains:int -> Compiled.t -> int
(** Exact number of unsorted 0-1 inputs out of [2^wires]. *)

val is_sorting_network : ?domains:int -> Compiled.t -> bool
(** [find_unsorted c = None]. *)

(** {1 Whole-network facts}

    Two sweeps over all [2^wires] 0-1 inputs for the static analyzer:
    the exact per-gate and per-level facts its verdicts and
    certificates need. Both are exponential in [wires], like
    {!find_unsorted}; the caller guards the width. *)

type activity = {
  fires : bool array;
      (** per gate of the instruction stream: some input reaches it
          with 1 on [ga] and 0 on [gb] (a comparator exchanges) *)
  least_unsorted : int option;
      (** the least unsorted output mask in register coordinates (bit
          [r] = output register [r]), or [None] when [c] sorts *)
}

val gate_activity : Compiled.t -> activity
(** The per-gate bit is read before the gate acts. A gate's index
    is its position in the stream; gate [g] of source level [l] is
    [level_off.(l) + g]. *)

val level_images : Compiled.t -> int list array
(** For each source level (gate-free permutation levels included), the
    distinct masks the [2^wires] inputs reach after it, in register
    coordinates (bit [r] = register [r], through the level's [slots]
    map) and increasing order. *)
