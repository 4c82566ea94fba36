(** Sets of 0-1 vectors as bit rows, and the set-image kernel.

    A set of masks on [n <= 16] wires (bit [w] of a mask is wire [w]'s
    value) is a row of {!words}[ ~n] int64 words: mask [m] is bit
    [m mod 64] of word [m / 64], and below six wires the set is the low
    [2^n] bits of one word. A row may sit at any word offset [base] of
    a larger Bigarray, as the search arena's rows do.

    {!apply_cmp} is the one kernel that maps such a set through a
    comparator: a butterfly of masked word shifts, O(words) operations
    per comparator. The exact search stages every child with it
    ([Arena]), and serve's verify key builds a network's 0-1 reachable
    set with it by running the comparators over the {!cube}
    ([Scache.key]).

    Every function reads and writes words [base .. base + wpr - 1]
    without bounds checks: the caller keeps them inside the row. *)

type row = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val words : n:int -> int
(** Words per row: [max 1 (2^n / 64)]. *)

val intra : int64 array array
(** [intra.(i).(j)], [i <> j < 6]: the positions of a word whose index
    has bit [i] set and bit [j] clear ([0L] on the diagonal). *)

val bitset : int64 array
(** [bitset.(i)], [i < 6]: the positions of a word whose index has bit
    [i] set. *)

val cube : n:int -> row
(** A fresh row holding all [2^n] masks.
    @raise Invalid_argument outside [1 <= n <= 16]. *)

val apply_cmp : row -> wpr:int -> int -> int -> int -> unit
(** [apply_cmp r ~wpr base i j] replaces the set at [base] by its image
    under the comparator [(i, j)], [i <> j], both below the row's wire
    count: the minimum goes to channel [i] and the maximum to channel
    [j] (ascending when [i < j], reversed when [i > j]), so every mask
    with bit [i] set and bit [j] clear becomes the mask with the two
    bits exchanged, and every other mask stays. *)

val card : row -> wpr:int -> int -> int
(** Number of masks in the set at [base]. *)

val iter : row -> wpr:int -> int -> (int -> unit) -> unit
(** [iter r ~wpr base f] calls [f] on every mask of the set at [base],
    in ascending order. *)

val elements : row -> wpr:int -> int -> int array
(** The masks of the set at [base], ascending. *)
