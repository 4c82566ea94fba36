(** Plain-text (de)serialisation of networks.

    A simple line-oriented format, stable across versions, so networks
    can be stored, diffed, shipped to other tools and read back:

    {v
    snlb-network 1
    wires 4
    level
    cmp 0 1
    cmp 2 3
    level
    perm 1 0 3 2
    xchg 1 2
    v}

    [cmp a b] places the minimum on wire [a] (so ["cmp 3 1"] is a
    descending comparator); [perm] gives the level's pre-permutation as
    the image list; blank lines and [#]-comments are ignored. Parsing
    validates as it goes — [cmp]/[xchg]/[perm] wires out of
    [0, wires), a gate reusing a wire already touched in its level,
    and [perm] lines with missing or duplicate images are all rejected
    with the offending line number. *)

val to_string : Network.t -> string

val of_string : string -> (Network.t, string) result
(** Round-trip guarantee: [of_string (to_string nw)] succeeds and the
    result evaluates identically to [nw] (tested). Linear in the text,
    and never raises: a [wires] line above [2^24] is a parse error on
    its line, not an allocation. *)

val save : string -> Network.t -> (unit, string) result
(** [save path nw] writes the textual form to [path] atomically
    ({!Atomic_file.write}: temp file, fsync, rename), so a crash
    mid-save can never leave a torn file where a good one was. *)

val load : string -> (Network.t, string) result
