(** Compiled form of a {!Network.t}: the immutable level/gate lists are
    lowered once into a flat, cache-friendly instruction stream so the
    per-input cost of evaluation is a single pass over int arrays with
    no list traversal, no option tests and no closure calls.

    Compilation performs the {!Network.flatten} slot analysis at compile
    time: every [pre] permutation is folded into the gate endpoints, so
    the executors never permute wire contents mid-stream. What remains
    of the permutations is (a) an optional final output routing [take]
    (output register [r] reads flattened slot [take.(r)]) and (b) an
    optional per-level register→slot map [slots] used only by
    {!scan_levels} to report intermediate states in the original
    register coordinates.

    A compiled network is immutable after construction and safe to
    share across OCaml 5 domains: every executor allocates its own
    working state. The fields are exposed read-only ([private]) for the
    other engine modules ({!Bitslice}) — treat their contents as
    frozen. *)

type t = private {
  wires : int;  (** number of registers *)
  kinds : Bytes.t;
      (** one byte per gate: ['\000'] compare (min to [ga]),
          ['\001'] unconditional exchange *)
  ga : int array;  (** first endpoint (flattened slot) per gate *)
  gb : int array;  (** second endpoint (flattened slot) per gate *)
  level_off : int array;
      (** length [levels + 1]; gates of level [i] occupy
          [level_off.(i) .. level_off.(i+1) - 1], in the source level's
          gate order *)
  level_cmp : bool array;  (** level contains at least one comparator *)
  slots : int array array option;
      (** register→slot map in effect at each level; [None] when the
          source network has no [pre] permutations (identity maps) *)
  take : int array option;
      (** final routing: output register [r] holds slot [take.(r)];
          [None] when that map is the identity *)
  depth : int;  (** number of comparator levels, as {!Network.depth} *)
}

val of_network : Network.t -> t
(** [of_network nw] compiles [nw]. Cost is one pass over the levels;
    the result is valid for the lifetime of the process. *)

val wires : t -> int

val depth : t -> int

val levels : t -> int
(** Total level count of the source network (including gate-free
    permutation levels). *)

val gate_count : t -> int
(** Total gates (comparators + exchanges) in the instruction stream. *)

val comparators : t -> int
(** Comparator gates only, as {!Network.size}. *)

val eval : t -> int array -> int array
(** [eval t input] is extensionally {!Network.eval} on the source
    network: a fresh output array, input untouched.
    @raise Invalid_argument on length mismatch. *)

val eval_many : ?domains:int -> t -> int array array -> int array array
(** [eval_many t inputs] evaluates a batch, amortising compilation and
    per-call setup over the sweep; [domains] (default 1) fans the batch
    out across OCaml 5 domains via {!Par.map_ranges}. Outputs are in
    input order. *)

val scan_levels :
  t ->
  int array ->
  on_level:(comparator_levels:int -> int array -> unit) ->
  int array
(** [scan_levels t input ~on_level] executes level by level, calling
    [on_level ~comparator_levels values] after each level with the
    number of comparator levels fired so far and the wire contents in
    the {e original register coordinates} (the array is a scratch
    buffer reused between calls — copy if retained, never mutate).
    Returns the final output, equal to [eval t input]. Used by
    {!Sort_depth} for the paper's average-case depth measure. *)
