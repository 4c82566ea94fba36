(** A search node: the closed set of zero-one vectors reachable at the
    output of a comparator-network prefix, as a packed bitset.

    By the 0-1 principle, a prefix on [n] wires is characterised — for
    the purpose of deciding whether some suffix completes it to a
    sorting network — by the image of all [2^n] zero-one inputs. A
    vector assigns bit [w] of an [n]-bit mask to wire [w] (the same
    encoding as {!Min_depth}); the set of reachable masks is stored one
    bit per mask, 62 masks per word, so membership, union, subset and
    the sortedness test are word operations.

    States are immutable after construction and safe to share across
    domains. All transition functions ([apply_comparators],
    [map_masks]) allocate a fresh state. *)

type t

val initial : n:int -> t
(** All [2^n] vectors: the state of the empty prefix.
    @raise Invalid_argument unless [2 <= n <= 20]. *)

val of_masks : n:int -> int list -> t
(** A state holding exactly the given masks (duplicates collapse).
    @raise Invalid_argument if a mask is outside [0, 2^n). *)

val n : t -> int
(** Number of wires. *)

val card : t -> int
(** Number of reachable vectors. *)

val mem : t -> int -> bool

val masks : t -> int list
(** The reachable masks in increasing order (tests, diagnostics). *)

val iter_masks : (int -> unit) -> t -> unit

val exists_mask : (int -> bool) -> t -> bool

val for_all_masks : (int -> bool) -> t -> bool

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is true iff every vector of [a] is in [b]. Word-wise. *)

val key : t -> int array
(** The underlying bit words, for hashtable keys. The caller must treat
    the array as frozen; two states on the same [n] are [equal] iff
    their keys are structurally equal. *)

val of_key : n:int -> int array -> t
(** Inverse of {!key} (the array is copied): rebuilds the state a key
    was taken from — how checkpointed dedup memory is rehydrated into
    an {!Arena}.
    @raise Invalid_argument if the word count is wrong for [n]. *)

val apply_comparators : t -> (int * int) list -> t
(** [apply_comparators st layer] pushes every reachable vector through
    one parallel layer of {e ascending} comparators: each pair [(i, j)]
    with [i < j] places the minimum on wire [i]. Pairs must be disjoint
    (not checked — the layer generators guarantee it). *)

val map_masks : t -> (int -> int) -> t
(** [map_masks st f] is the image state [{ f v | v in st }] — the
    generic transition for register-model stages (e.g. shuffle + ops in
    {!Min_depth}). [f] must return masks in [0, 2^n). *)

val is_sorted : t -> bool
(** True iff every reachable vector is sorted ascending by wire index
    (zeros on low wires) — i.e. the prefix is a sorting network. *)
