(** The analyzer façade: one pass of a network through an abstract
    domain, producing a facts record plus typed diagnostics; the
    strictness gate for loading; the observability counters.

    Domain choice: networks with at most [exact_max_wires] wires
    (default {!default_exact_max_wires}, never above {!exact_cap}) use
    the exact 0-1 domain: the compiled kernel's sweep over all [2^n]
    zero-one inputs ({!Bitslice.gate_activity}) — sortedness is then
    decided (proved {e or} refuted), and the dead classification is
    exact on 0-1 behaviour. Wider networks use the polynomial
    order-bounds domain ({!Bounds}) — sortedness can only be proved,
    never refuted, and dead is a sound under-approximation (every
    flagged gate really is dead; unflagged gates are unclassified).

    Definitions (see DESIGN.md for the soundness argument):
    - a comparator is {b dead} when it never exchanges on any
      reachable input — removing it leaves the network's function
      unchanged (diagnostics: SNL201, warning). An exchange is never
      dead: on any network prefix two distinct wires differ on some
      reachable input. *)

type sortedness =
  | Sorting_proved  (** exact domain: all reachable 0-1 outputs sorted *)
  | Sorting_refuted of int
      (** exact domain: this reachable output mask is unsorted *)
  | Sorted_by_bounds  (** order-bounds domain proved sortedness *)
  | Unknown  (** bounds domain could not decide *)

type gate_ref = { level : int; gate : int; a : int; b : int }
(** [level] 1-based, [gate] 0-based within the level, [a]/[b] the
    wires ([lo]/[hi] for comparators). *)

type facts = {
  wires : int;
  levels : int;
  depth : int;
  comparators : int;
  exchanges : int;
  exact : bool;  (** exact 0-1 domain used *)
  sortedness : sortedness;
  dead : gate_ref list;  (** every dead comparator, in walk order *)
  shuffle_stages : int option;
  reverse_delta_blocks : int option;
  delta_blocks : int option;
}

type report = { facts : facts; diags : Diag.t list }

val default_exact_max_wires : int
(** 12: the widest network {!analyze}, the {!Analysis_cert} emitters
    and [snlb lint] put in the exact domain unless told otherwise. *)

val exact_cap : int
(** 16: no exact domain above it, whatever [exact_max_wires] asks —
    the checker's reach certificates stop at 16 wires. *)

val analyze : ?exact_max_wires:int -> ?cross_check:bool -> Network.t -> report
(** [cross_check] (default false): when the exact domain decided
    sortedness, re-derive the verdict independently through the
    compiled bit-sliced engine; a disagreement — an analyzer bug —
    yields an SNL999 error diagnostic (and is counted). *)

val remove_dead : Network.t -> facts -> Network.t
(** The network with every comparator in [facts.dead] removed
    (extensionally equal by soundness of the dead classification). *)

(** {1 Domain passes}

    The two passes behind {!analyze}'s verdicts, shared with the
    {!Analysis_cert} emitters. Each returns the sortedness verdict and
    the [dead] list of {!facts}. *)

val exact_verdicts : Network.t -> Compiled.t -> sortedness * gate_ref list
(** [exact_verdicts nw c], with [c] compiled from [nw]: one
    {!Bitslice.gate_activity} sweep. A comparator is dead iff it never
    fires. [Sorting_refuted] carries the least unsorted output mask. *)

val bounds_verdicts :
  Network.t -> on_level:(Bounds.t -> unit) -> sortedness * gate_ref list
(** The order-bounds walk: each level's gates are judged against its
    entry state, then transferred, and [on_level] sees the state after
    each level. Sortedness is [Sorted_by_bounds] or [Unknown]. *)

(** {1 Load gate} *)

type strictness = Off | Warn | Strict

val check : ?strictness:strictness -> Network.t -> (Diag.t list, Diag.t list) result
(** Gate a loaded network. [Off]: [Ok []] always. [Warn] (default):
    [Ok diags] unless an error-severity diagnostic is present. [Strict]:
    [Error diags] if any warning or error is present. Diagnostics are
    the structural + semantic set of {!analyze} (no conformance — that
    is opt-in via [snlb lint]). *)

val load :
  ?strictness:strictness -> string -> (Network.t * Diag.t list, string) result
(** [Network_io.load] followed by {!check} (the gate cannot live
    inside lib/network without a dependency cycle — this wrapper is
    the composed entry point; the CLI's [snlb load --check] uses it). *)
