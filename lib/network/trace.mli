(** Collision traces: which pairs of values a network compares.

    The lower-bound argument revolves around Definition 3.6: two input
    wires collide under an input iff their values meet at a comparator.
    This module runs a network on a concrete input and records exactly
    that relation on values, so that adversary certificates ("values
    [m] and [m+1] are never compared") can be validated independently
    of the symbolic machinery. *)

type t
(** The comparison relation observed during one evaluation. *)

val run : Network.t -> int array -> int array * t
(** [run nw input] evaluates [nw] on [input], returning the output and
    the full trace of value comparisons. *)

val compared : t -> int -> int -> bool
(** [compared tr u v] is [true] iff values [u] and [v] met at some
    comparator during the traced run. Symmetric. *)

val count : t -> int
(** Total number of comparator firings recorded (with multiplicity
    collapsed per distinct value pair). *)

val pairs : t -> (int * int) list
(** All distinct compared value pairs, each as [(min, max)], sorted. *)

val wires_collide : Network.t -> int array -> int -> int -> bool
(** [wires_collide nw input w0 w1] is [true] iff input wires [w0] and
    [w1] collide in [nw] under [input] — i.e. the values placed on
    those wires are compared somewhere (Definition 3.6). One evaluation
    pass that asks only about that pair; the relation is not built. *)
