(** Sets of 0-1 vectors as bit rows, and the set-image kernel.

    A set of masks on [n <= 16] wires (bit [w] of a mask is wire [w]'s
    value) is a row of {!words}[ ~n] int64 words: mask [m] is bit
    [m mod 64] of word [m / 64], and below six wires the set is the low
    [2^n] bits of one word. A row may sit at any word offset [base] of
    a larger Bigarray, as the search arena's rows do.

    {!apply_cmp} is the one kernel that maps such a set through a
    comparator, and {!transpose} and {!permute} the ones that map it
    through an exchange and a channel permutation: butterflies of
    masked word shifts, O(words) operations each. {!walk} runs a whole
    network on the {!cube} with them, so every reachable-set question
    is answered here: the exact search stages every child with the
    kernels ([Arena]), and the walk gives the analyzer its exact
    verdicts and per-level sets ([Analysis], [Analysis_cert]) and
    serve's verify key its reachable set ([Scache.key]).

    Every function reads and writes words [base .. base + wpr - 1]
    without bounds checks: the caller keeps them inside the row. *)

type row = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val words : n:int -> int
(** Words per row: [max 1 (2^n / 64)]. *)

val cube : n:int -> row
(** A fresh row holding all [2^n] masks.
    @raise Invalid_argument outside [1 <= n <= 16]. *)

val apply_cmp : row -> wpr:int -> int -> int -> int -> bool
(** [apply_cmp r ~wpr base i j] replaces the set at [base] by its image
    under the comparator [(i, j)], [i <> j], both below the row's wire
    count: the minimum goes to channel [i] and the maximum to channel
    [j] (ascending when [i < j], reversed when [i > j]), so every mask
    with bit [i] set and bit [j] clear becomes the mask with the two
    bits exchanged, and every other mask stays. Returns whether any
    mask moved, which is whether the comparator fires on the set. *)

val transpose : row -> wpr:int -> int -> int -> int -> unit
(** [transpose r ~wpr base i j], [i < j] below the row's wire count:
    the image of the set at [base] under the exchange of channels [i]
    and [j] — every mask with bits [i] and [j] unequal becomes the mask
    with the two bits exchanged. *)

val permute : row -> wpr:int -> n:int -> int -> int array -> unit
(** [permute r ~wpr ~n base pi]: the image of the set at [base] under
    the channel permutation [pi] of [n] channels, which carries the
    value on channel [c] to channel [pi.(c)] (bit [pi.(c)] of an image
    mask is bit [c] of its source), as one {!transpose} per step of
    each cycle of [pi]. *)

val card : row -> wpr:int -> int -> int
(** Number of masks in the set at [base]. *)

val iter : row -> wpr:int -> int -> (int -> unit) -> unit
(** [iter r ~wpr base f] calls [f] on every mask of the set at [base],
    in ascending order. *)

val elements : row -> wpr:int -> int -> int array
(** The masks of the set at [base], ascending. *)

val walk :
  ?on_gate:(int -> int -> bool -> unit) ->
  ?on_level:(row -> unit) ->
  Network.t ->
  row
(** [walk nw] is the set of outputs of all [2^n] inputs of [nw] ([n]
    its wire count), as a fresh row of {!words}[ ~n] words at offset 0
    in register coordinates (bit [r] of a mask is output register
    [r]): starting from the {!cube}, each level applies its [pre] with
    {!permute}, then its gates in order, an exchange with {!transpose}
    and a comparator with {!apply_cmp}. [on_gate l g fired] is called
    for comparator [g] (0-based within its level) of level [l]
    (0-based) with whether it fires on the set reaching it, and
    [on_level r] after each level with the walk's row, which holds the
    set of vectors reaching that point (read it, do not keep or change
    it). @raise Invalid_argument outside [1 <= n <= 16]. *)
