(** GC-free packed-state arena for the exact search.

    Every state the search keeps is one flat row of int64 Bigarray
    words (64 reachable masks per word), with the scalars the
    subsumption filters scan — cardinality, BFS level, row hash and
    the packed filter signatures — in parallel int arrays: a
    struct-of-arrays layout the hot loops walk without chasing boxed
    [State.t] or fingerprint records. Dedup is open addressing over an
    xxhash64-style row hash (linear probing, power-of-two table,
    resized at load factor 1/2), so the frontier never allocates boxed
    keys. Comparator layers apply to a whole row as a butterfly of
    masked word shifts, and channel permutations as a product of
    index-bit transpositions — O(row words) per comparator or
    transposition instead of a loop over every reachable mask.

    Mutation protocol: build a child into the single {e staging row}
    with {!stage_state} or {!stage_child}, interrogate it
    ({!staged_is_sorted}), then {!commit} it — which either dedups it
    against every row ever committed or freezes it as the next index.
    Committed rows are immutable and indices are stable until
    {!retain} drops rows and moves later ones down.

    Domains: every call that mutates the arena — staging, committing,
    {!sign_pending}, {!retain}, {!record_metrics} — and every call
    that reads the staging row stays on one domain, the arena's owner.
    While the owner makes none of those calls, other domains may run
    {!subsumes_with}, {!card}, {!level}, {!length}, {!to_state} and
    {!iter_masks} against the committed rows, each domain with its own
    {!scratch}; {!sign_pending} itself fans out that way. {!subsumes}
    uses the owner's scratch, so it stays on the owner. *)

type t

val create : ?with_sigs:bool -> n:int -> unit -> t
(** An empty arena for [n]-wire states ([2 <= n <= 16]; rows are [2^n]
    bits). [with_sigs] (default true) additionally computes, at commit
    time, the packed SWAR signatures that {!subsumes} needs; pass
    [false] for equality-dedup-only runs to skip that work.
    @raise Invalid_argument outside [2 <= n <= 16], or with
    [with_sigs] above [n = 10] (the subsumption search's own cap,
    {!Driver.network_system}), where signature counts no longer fit
    their 8-bit fields. *)

val n : t -> int

val length : t -> int
(** Number of committed states; valid indices are [0 .. length - 1]. *)

val stage_state : t -> State.t -> unit
(** Pack an explicit state into the staging row. *)

val stage_child : t -> ?perm:int array -> parent:int -> (int * int) list -> unit
(** [stage_child t ?perm ~parent pairs] writes into the staging row the
    image of committed row [parent] under one move: first the channel
    permutation [perm], if given, which carries the value on channel [c]
    to channel [perm.(c)] (so bit [perm.(c)] of an image mask is bit [c]
    of its source mask); then the comparators [pairs] in order, each
    [(i, j)] putting the minimum on channel [i] and the maximum on
    channel [j] — ascending when [i < j], reversed when [i > j]. The
    pairs of a layer are disjoint. Without [perm] this is the
    arena-native [State.apply_comparators], with no allocation; a
    shuffle stage is [perm] = the index-bit rotation, with any
    exchanges folded into it. *)

val staged_is_sorted : t -> bool
(** Whether the staging row's reachable set contains only the [n + 1]
    sorted 0-1 vectors — the "witness found" test, before commit. *)

val commit : t -> level:int -> [ `Fresh of int | `Dup of int ]
(** Dedup-insert the staging row: [`Dup idx] if a row with identical
    words was already committed (the staging row is simply abandoned),
    else [`Fresh idx] freezing it at the next index with BFS level
    [level]. When signatures are enabled, every row not yet signed
    (this one and any left by {!commit_unsigned}) is signed before
    [commit] returns. *)

val commit_unsigned : t -> level:int -> [ `Fresh of int | `Dup of int ]
(** {!commit} without the signature packing: a fresh row stays
    unsigned — and {!subsumes} refuses it — until the next
    {!sign_pending} or {!commit}. Lets a level's expansion defer its
    signatures to one parallel pass. *)

type scratch
(** Per-domain working memory for {!subsumes_with} and the signature
    packing of {!sign_pending}: candidate channel sets, the profiles
    and open images of the permutation search, the permutation under
    test, count accumulators, one row buffer, and the {!backtracks} and
    {!leaves} counters. *)

val scratch : t -> scratch
(** A fresh scratch sized for this arena, for one domain's use. *)

val sign_pending : t -> scratch array -> unit
(** Pack the signatures of every committed row not yet signed, as one
    pass over those rows. The pass fans out over up to
    [Array.length scratches] domains ({!Par.iter_chunks}; worker [w]
    uses [scratches.(w)]) once there are enough rows to feed them, and
    runs inline otherwise. No-op without signatures.
    @raise Invalid_argument if [scratches] is empty. *)

val staged_state : t -> State.t
(** Unpack the staging row (allocating) without committing it — for
    [State.t]-typed prune hooks that must see a child {e before} it
    enters the dedup memory. *)

val retain : t -> prefix:int -> int array -> unit
(** [retain t ~prefix rows] drops committed rows. Rows [0 .. prefix - 1]
    stay where they are; the rows listed in [rows] (strictly ascending,
    each in [\[prefix, length t)]) move down in order, [rows.(k)]
    becoming index [prefix + k] with its words, card, level, hash and
    signature block; every other row is gone and its index, once past
    the new {!length}, is invalid. The dedup table is rebuilt over the
    kept rows, so committing a dropped row's words again is [`Fresh].
    [retain t ~prefix:len [||]] truncates to the first [len] rows: how
    the search rolls back a level it abandons, and how its
    subsumption filter drops the losing rows of each chunk of
    children it commits.
    @raise Invalid_argument if [prefix] or [rows] is out of range or
    [rows] does not ascend. *)

val card : t -> int -> int
(** Reachable-set cardinality of a committed row (precomputed). *)

val level : t -> int -> int
(** BFS level recorded at commit. *)

val to_state : t -> int -> State.t
(** Unpack a committed row (allocating) — the bridge to the
    [State.t]-typed prune/redundancy hooks and checkpoint format. *)

val iter_masks : t -> int -> (int -> unit) -> unit
(** Iterate the reachable masks of a committed row in increasing order
    without unpacking it. *)

val subsumes : t -> int -> int -> bool
(** [subsumes t a b]: does some wire permutation [pi] carry row [a]'s
    reachable set into a subset of row [b]'s (Bundala–Závodný: then
    [b] can be dropped from a frontier that keeps [a])? The necessary
    conditions run first, as field-wise comparisons on the packed
    signatures (one subtract-and-mask per signature word): total
    cardinality, the per-level counts, and the sorted out- and
    in-degrees of the pair-order profile (for each channel [c], the
    channels [d] such that some reachable mask has bit [c] set and bit
    [d] clear). Unless row [a] is a subset of row [b], a backtracking
    search then assigns channels to the images their ones and zeros
    counts allow, every assignment narrowing the later channels'
    images by the profiles (a pair unordered in [a] must map to one
    unordered in [b]), and tests each full permutation on the whole
    row. Allocates only a closure and a counter per search.
    @raise Invalid_argument unless both rows are signed — which needs
    an arena created with signatures, and rows committed by {!commit}
    or covered by a {!sign_pending} since. *)

val subsumes_with : t -> scratch -> int -> int -> bool
(** {!subsumes} on the given scratch instead of the owner's, so any
    domain holding its own scratch can run it (see the preamble). *)

val subsumes_perm : t -> int -> int -> int array option
(** {!subsumes} returning its witness as an image array ([pi.(c)] is
    where channel [c] lands), for certificate covers: [None] iff
    [subsumes t a b] is false, the identity when row [a] is a subset of
    row [b], and otherwise the first permutation in the search's order
    (channels by fewest candidate images, images ascending) that
    carries [a] into [b] — the profile pruning never changes which one.
    Runs on the owner's scratch. *)

val key_words : t -> int
(** Length of a row's pre-filter key: its level signature, then its
    sorted out-degree and in-degree words (3 words for [n <= 9]). *)

val key_guards : t -> int array
(** The guard bits of each key word. Row [a] can subsume row [b] only
    if their keys [ka], [kb] satisfy, for every word [w] with guard
    [g], [((kb.(w) lor g) - ka.(w)) land g = g]: every packed count of
    [a] is at most [b]'s. {!subsumes} checks exactly this after the
    cardinalities. *)

val blit_key : t -> int -> int array -> int -> unit
(** [blit_key t idx dst off] copies signed row [idx]'s key into
    [dst.(off) .. dst.(off + key_words t - 1)], so a caller can scan
    its own candidate subsumers' keys contiguously.
    @raise Invalid_argument if the row is not signed. *)

val backtracks : scratch -> int
(** How many {!subsumes_with} calls on this scratch reached the
    permutation search, since the scratch was made. *)

val leaves : scratch -> int
(** How many full permutations those searches tested against the
    whole row. *)

val bytes : t -> int
(** The memory {!record_metrics} reports as [arena.bytes]. *)

val record_metrics : t -> unit
(** Flush the arena's local counters into the global {!Metrics}
    registry ([arena.probes], [arena.collisions], [arena.resizes],
    [arena.bytes]; [arena.states] / [arena.dups] are bumped live at
    commit) — call once per run, not per operation. [arena.bytes] is
    the memory of every per-state array the arena owns (rows,
    cardinality, level, hash, and the signature blocks: level and
    per-channel ones signatures, degree words, and the packed profile
    and its transpose), its dedup table and its two per-byte-position
    tables (the popcount and the high channels of each row byte). *)
