(** Exhaustive minimal-depth search for shuffle-based sorters (tiny n),
    as a shuffle-restricted instantiation of the generic layered search
    driver ({!Driver}).

    Section 6 asks whether small-depth sorting networks based on a
    single permutation exist, and Knuth's problem 5.3.4.47 asks for the
    exact minimal depth of shuffle-based sorters. For tiny [n] the
    question is decidable by search: a prefix of a shuffle-based
    network is characterised (for sorting purposes, by the 0-1
    principle) by the *image* of all [2^n] zero-one inputs — exactly
    the packed {!State} representation — and stages act on that image
    deterministically, so a layered breadth-first search over images
    answers "does a depth-[D] shuffle-based sorter exist?" exactly.

    The instantiation plugs three things into {!Driver.run}: the move
    set (all [4^(n/2)] op vectors per stage), the transition (shuffle
    the registers, then apply the op vector pairwise — staged on the
    {!Arena} as one permutation of mask-index bits, the shuffle's
    rotation with the exchanges folded in, then a directed comparator
    per [Plus] or [Minus]), and a pruning test — unit masks (single 1) remain unit masks under comparators,
    and a unit at register [p] can only reach the top register within
    [r] further stages if the low [lg n - r] bits of [p] are all ones
    (its high position bits are already committed); dually for
    single-zero masks. Unlike the free-layer search, the frontier is
    deduplicated by state {e equality} only: channel permutations do
    not commute with the fixed shuffle wiring, so subsumption is
    unsound here. *)

type outcome =
  | Sorter of Register_model.op array list
      (** a witness program: op vectors, one per stage *)
  | Impossible  (** exhaustively refuted at this depth *)
  | Inconclusive  (** search aborted by the budget *)
  | Interrupted  (** cancelled; a configured checkpoint can resume *)

type minimal =
  | Minimal of int * Register_model.op array list
      (** the exact minimal depth, with a verified witness *)
  | No_sorter  (** every depth up to [max_depth] exhaustively refuted *)
  | Unknown of int
      (** budget exhausted; depths up to the payload {e are} refuted *)
  | Stopped of int
      (** cancelled; depths up to the payload {e are} refuted, and a
          configured checkpoint can resume the rest *)

val system : n:int -> Register_model.op array Driver.system
(** The shuffle-restricted system on [n] registers ([n] a power of two
    in [2, 16]), tagged ["shuffle-ops"]: staging op vector [ops] from a
    state gives the image of its masks under one stage
    [Register_model.shuffle_program ~n [ops]]. *)

val search :
  n:int -> depth:int -> ?budget:Driver.budget -> ?domains:int ->
  ?sink:Sink.t -> ?cancel:Cancel.t -> ?checkpoint:string * float ->
  ?resume:bool -> unit -> outcome
(** [search ~n ~depth ()] decides whether some shuffle-based network of
    at most [depth] stages sorts all inputs (a [Sorter] witness may be
    shorter than [depth]). [budget] (default {!Driver.default_budget})
    bounds move applications as in {!Driver.run}; [sink] receives the
    driver's per-level span events; [cancel] / [checkpoint] / [resume]
    behave exactly as in {!Driver.run}: the snapshots carry the
    ["shuffle-ops"] tag among the driver's keys, so {!Checkpoint.resume}
    refuses them in the free-layer search and vice versa.
    @raise Invalid_argument unless [n] is a power of two in [2, 16]. *)

val minimal_depth :
  n:int -> max_depth:int -> ?budget:Driver.budget -> ?domains:int ->
  ?sink:Sink.t -> ?cancel:Cancel.t -> ?checkpoint:string * float ->
  ?resume:bool -> unit -> minimal
(** The least [D <= max_depth] admitting a sorter, with a verified
    witness ([Minimal]); [No_sorter] if every depth up to [max_depth]
    is refuted; [Unknown k] if the budget ran out after exhaustively
    refuting depths up to [k]; [Stopped k] likewise on cancellation. *)

val verify_witness : n:int -> Register_model.op array list -> bool
(** Checks a witness with the independent 0-1 verifier. *)
