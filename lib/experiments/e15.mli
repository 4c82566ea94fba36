(** E15 — the static analyzer over the sorter registry: per-network
    dead comparator counts (zero for the merge-based classics;
    provably positive for the periodic and Shellsort families), the
    sortedness verdict by domain (exact for n <= 12, order bounds
    above), and the three topology-conformance verdicts (shuffle-based,
    iterated reverse delta, delta skeleton) that gate Theorem 4.1.
    Quick mode analyzes n = 8 only; the full run adds n = 16 to show
    the exact/bounds domain split. *)

val run : quick:bool -> unit
