(** Reverse delta networks, in the recursive form of Definition 3.4.

    A [2^(l+1)]-input reverse delta network consists of two parallel
    [2^l]-input reverse delta networks followed by one level of cross
    elements, each taking one wire from either subnetwork; a 1-input
    reverse delta network is a bare wire. The lower-bound adversary
    walks this structure directly, so the type keeps the recursion
    explicit instead of flattening to a circuit immediately.

    Wires are global integer identifiers carried at the leaves; cross
    elements reference those global identifiers, never positional
    ports. The two subnetworks of a node always have disjoint wire
    sets. *)

type kind =
  | Min_left  (** comparator: min to the [sub0]-side wire ("+") *)
  | Min_right  (** comparator: min to the [sub1]-side wire ("-") *)
  | Swap  (** unconditional exchange ("1"); never a collision *)

type cross = { left : int; right : int; kind : kind }
(** One cross element: [left] is an input wire of [sub0], [right] of
    [sub1]. Pairs not mentioned get the "0" (do nothing) element. *)

type t = Wire of int | Node of { sub0 : t; sub1 : t; cross : cross list }

val validate : t -> unit
(** Checks the structural invariants: both subnetworks of every node
    have the same number of leaves, all leaf wires are distinct, every
    cross element joins a [sub0] wire with a [sub1] wire, and no wire
    is used twice within one cross level. Linear in the size of the
    tree.
    @raise Invalid_argument on violation. *)

val levels : t -> int
(** [levels rd] is [l]: the number of cross levels on any root-to-leaf
    path (0 for a wire). *)

val inputs : t -> int
(** [inputs rd = 2^(levels rd)] is the number of leaf wires. *)

val leaves : t -> int array
(** The leaf wires, in recursive order ([sub0] leaves before [sub1]
    leaves). *)

val cross_count : t -> int
(** Total number of cross elements of all kinds. *)

val comparator_count : t -> int
(** Cross elements that are comparators ([Min_left] or [Min_right]). *)

val to_network : wires:int -> t -> Network.t
(** [to_network ~wires rd] flattens [rd] into a circuit-model network
    on [wires] total wires (leaf identifiers must lie in
    [0, wires)). Cross levels of recursion depth [j] fire at time step
    [levels rd - j], so the two subnetworks run before their parent's
    cross level, as the definition requires. Wires of the ambient
    network not mentioned by [rd] pass through untouched. *)

val butterfly_cross : t -> t -> (int -> kind option) -> cross list
(** [butterfly_cross sub0 sub1 choose] pairs leaf [i] of [sub0] with
    leaf [i] of [sub1] (positionally) and keeps the pair iff
    [choose i] is [Some kind]. Convenience for builders. *)

val map_wires : (int -> int) -> t -> t
(** Renames all leaf and cross wires. The renaming must be injective on
    the leaf set (validated). *)

val pp : Format.formatter -> t -> unit
(** Structural rendering for debugging; small instances only. *)
