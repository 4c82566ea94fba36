(** Proof-carrying certificates and their independent checker.

    Every high-stakes verdict the system emits — "this network sorts",
    "this comparator is dead", "depth [d] is optimal" — can be shipped
    with a certificate that this module re-validates {e without
    calling} the engine, search or analysis code that produced it. The
    library deliberately depends only on the data-model layers
    ([Bitops], [Perm], [Network]): the checker re-derives everything it
    accepts from first principles, so a bug in the producers cannot
    leak into a checked verdict.

    {2 Certificate kinds}

    - {e sortedness}: a per-level invariant annotation. In the [reach]
      domain each level carries an over-approximation of the 0-1
      reachable set; the checker verifies each level's image is
      contained in the next annotation and that the final one holds
      only sorted vectors. In the [bounds] domain each level carries
      the claimed [i <= j] order facts; the checker re-derives them
      with the pure min/max inference rules.
    - {e refutation}: a concrete 0-1 witness input, replayed through a
      ~15-line reference interpreter.
    - {e dead}: reachable-set facts justifying each dead-comparator
      diagnostic (the [SNL201] pruning claims).
    - {e lower-bound}: an adversary transcript in the paper's register
      model [(Pi_i, x_i)]; the checker replays both runs of the
      fooling pair and confirms the witness values were never compared.
    - {e exhaustion}: the layered-BFS frontier log with a subsumption
      permutation witness per expanded child, proving no network of
      depth [max_depth] exists on [n] wires.

    {2 Trust boundary}

    The checker {e assumes} only standard mathematics documented in
    DESIGN.md: the 0-1 principle, the subsumption lemma ([pi(A)
    contained in B] and [B] sortable in [r] layers implies [A] sortable
    in [r] layers, via Knuth's untangling of generalized networks), and
    that a depth-[d] standard network is a sequence of [d] nonempty
    ascending matchings. Everything else — set images, matching
    enumeration, permutation legality, comparison traces — it recomputes
    itself. *)

(** One register-model stage: a wire permutation (image array, size
    [n]) followed by [n/2] ops over register pairs [(2k, 2k+1)],
    written as a string over ['+'] (ascending comparator), ['-']
    (descending), ['1'] (unconditional exchange), ['0'] (no gate). *)
type stage = { perm : int array; ops : string }

(** A subsumption witness for one expanded child: [pi(pool(cite))] is
    contained in the child's reachable set, where [pool] is the
    implicit initial state (index 0) followed by every logged frontier
    state in order. *)
type cover = { cite : int; pi : int array }

(** Per-level sortedness annotations, one entry per network level. *)
type domain =
  | Reach_sets of int list array
      (** entry [l]: over-approximation of the reachable 0-1 masks
          {e after} level [l+1] *)
  | Bounds_leq of (int * int) list array
      (** entry [l]: order facts [i <= j] claimed to hold {e after}
          level [l+1] *)

type claim =
  | Dead of { level : int; gate : int }
      (** 1-based level, 0-based gate index: the gate never exchanges *)

type t =
  | Sortedness of { network : Network.t; domain : domain }
  | Refutation of { network : Network.t; witness : int }
  | Dead_gates of {
      network : Network.t;
      sets : int list array;
          (** reach annotations after each level, as in [Reach_sets] *)
      claims : claim list;
    }
  | Lower_bound of {
      n : int;
      stages : stage list;
      input : int array;
      twin : int array;
      wire0 : int;
      wire1 : int;
      value0 : int;
      value1 : int;
      m_set : int list;
    }
  | Exhaustion of {
      n : int;
      max_depth : int;
      frontiers : int list list array;
          (** length [max_depth - 1]; entry [l]: the BFS frontier after
              level [l+1], each state its sorted reachable-mask list *)
      covers : cover list array;
          (** length [max_depth - 1]; entry [l]: one cover per
              (parent of frontier [l], matching) child, parents in
              frontier order, matchings in {!all_matchings} order *)
    }

type error = { code : string; where : string; reason : string }
(** A typed rejection: [code] is a stable [CRT***] identifier (table in
    {!codes} and the README), [where] locates the failing certificate
    and directive, [reason] is the human sentence. *)

val codes : (string * string) list
(** All [CRT***] error codes with one-line meanings (append-only). *)

val kind_name : t -> string
(** ["sortedness"], ["refutation"], ["dead"], ["lower-bound"] or
    ["exhaustion"]. *)

val to_string : t -> string
(** Canonical text form ([snlb-cert 1] header). Printing is
    deterministic: equal certificates render byte-identically. *)

val output : out_channel -> t -> unit
(** [output oc c] writes [to_string c] to [oc] without building the
    string. *)

val parse : string -> (t list, error) result
(** Parse a file of one or more concatenated certificates. Blank lines
    and [#] comments are ignored outside embedded network blocks. A
    line is trimmed of [String.trim]'s blanks and split into tokens at
    single spaces, so any other blank inside a line belongs to its
    token; integers are read as [int_of_string] reads them. *)

val check : t -> (unit, error) result
(** Validate one certificate from first principles (no engine, search
    or analysis code). [Ok ()] means the certified verdict holds. *)

val check_all : t list -> (unit, error) result
(** {!check} in order, first failure wins; [where] carries the
    certificate's position. *)

(** {2 Building blocks, exposed for emitters and tests} *)

val is_sorted_mask : n:int -> int -> bool
(** Sorted = ones on the highest wires. *)

val eval_mask : Network.t -> int -> int
(** The reference 0-1 interpreter: one mask through every level
    (pre-permutation, then gates). Bit [w] of the mask is the value on
    wire [w]. *)

val all_matchings : n:int -> (int * int) list list
(** Every nonempty matching of [n] channels as ascending [(i, j)]
    pairs, in a fixed canonical order (sorted lists of sorted pairs,
    ordered lexicographically). This is the checker's {e complete}
    enumeration of candidate layers — 9 for n = 4, 75 for n = 6 — and
    emitters must enumerate children in the same order.
    @raise Invalid_argument unless [2 <= n <= 12]. *)
