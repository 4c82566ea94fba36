(** Theorem 4.1: iterating Lemma 4.1 over the blocks of an iterated
    reverse delta network.

    Starting from the all-[M_0] pattern, every block is processed by
    {!Lemma41.run}; the largest surviving [M_i]-set is selected and the
    pattern renamed back to [S_0 / M_0 / L_0] via [rho] (Lemma 3.4),
    ready for the next block. The run stops early once the special set
    has shrunk to a single wire — at that point the adversary has lost
    and the network *may* sort (a genuine sorter must always drive the
    adversary to that point; a too-shallow network must not, which is
    what Corollary 4.1.1 turns into a fooling pair). *)

type block_report = {
  index : int;
  a_size : int;  (** [|A|] entering the block *)
  b_size : int;  (** [|B|] after the block *)
  sets : int;  (** [t] *)
  d_size : int;  (** [|D|]: largest set, kept for the next block *)
  paper_bound : float;
      (** the theorem's pessimistic guarantee [n / lg^{4(index+1)} n],
          for comparison with the measured [d_size] *)
}

type result = {
  reports : block_report list;  (** one per processed block, in order *)
  survived : int;
      (** blocks after which the special set still had >= 2 wires *)
  final_pattern : Pattern.t;
      (** input pattern over the network's input wires; only
          [S_0 / M_0 / L_0] occur *)
  final_m_set : int list;
      (** the [M_0]-set of [final_pattern] — noncolliding in every
          processed block *)
  exhausted : bool;  (** all blocks processed (vs. stopped at |D| <= 1) *)
  interrupted : bool;
      (** stopped by a {!Cancel} token or an injected ["kill-block"]
          {!Fault} with blocks remaining; a configured checkpoint holds
          the last completed block for resumption *)
}

val run :
  ?k:int -> ?policy:Mset.offset_policy -> ?sink:Sink.t ->
  ?cancel:Cancel.t -> ?checkpoint:string -> ?resume:bool ->
  Iterated.t -> result
(** [run ?k ?policy it] processes the blocks of [it]. [k] defaults to
    [max 2 (lg n)], the theorem's choice; [policy] is the Lemma 4.1
    offset rule (ablation hook). [sink] receives one timed span per
    block (path ["adversary/block"], fields [index] / [a_size] /
    [b_size] / [sets] / [d_size]) nesting the {!Lemma41} span, plus a
    closing ["adversary"] event.

    Crash safety: with [~checkpoint:path] the run hands a snapshot of
    the adversary state to a {!Checkpoint.writer} after {e every}
    block, and the writer writes each one (blocks are the only
    consistent boundaries, and block counts are tiny —
    [O(lg n / lglg n)] — so there is no interval); [cancel] is polled
    between blocks. [~resume:true] reads the snapshot at [checkpoint]
    back through {!Checkpoint.resume}, checking its kind
    (["snlb-adversary"]) and its keys [n], [k] and [blocks], and
    continues with the next unprocessed block, so an
    interrupted-and-resumed run reports exactly the [reports] /
    [survived] / final pattern of an uninterrupted one. Any other
    snapshot degrades to a fresh run with the contract's one
    [snlb: cannot resume (<reason>); starting fresh] line. *)

val paper_bound : n:int -> blocks:int -> float
(** [n / (lg n)^(4 d)] — the explicit bound of Theorem 4.1. *)

val depth_lower_bound : n:int -> float
(** The depth below which Corollary 4.1.1 guarantees a fooling pair:
    [lg^2 n / (4 lglg n)] comparator levels. *)

val max_survivable_blocks : n:int -> int
(** Largest [d] with [n / lg^{4d} n > 1] — the number of blocks the
    theorem guarantees the adversary survives. *)
